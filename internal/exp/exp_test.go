package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

// simJobs builds n jobs that each derive a value purely from their seed.
func simJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		jobs[i] = Job{
			Name: fmt.Sprintf("job[%d]", i),
			Run: func(c *Ctx) (any, error) {
				r := rand.New(rand.NewSource(c.Seed))
				sum := 0
				for k := 0; k < 1000; k++ {
					sum += r.Intn(1000)
				}
				return sum, nil
			},
		}
	}
	return jobs
}

func values(s *Summary) []any {
	out := make([]any, len(s.Results))
	for i, r := range s.Results {
		out[i] = r.Value
	}
	return out
}

func TestDeriveSeedMatchesWithStallScheme(t *testing.T) {
	h := fnv.New64a()
	h.Write([]byte("soc/pe[3]/inject"))
	want := int64(12345) ^ int64(h.Sum64())
	if got := DeriveSeed(12345, "soc/pe[3]/inject"); got != want {
		t.Fatalf("DeriveSeed = %d, want %d (FNV-1a of name XOR campaign seed)", got, want)
	}
	if DeriveSeed(1, "a") == DeriveSeed(1, "b") {
		t.Fatal("distinct names derived the same seed")
	}
	if DeriveSeed(1, "a") == DeriveSeed(2, "a") {
		t.Fatal("distinct campaign seeds derived the same job seed")
	}
}

// The core determinism contract: results are bit-identical across
// parallelism levels and repeated runs, in submission order.
func TestParallelismInvariance(t *testing.T) {
	jobs := simJobs(16)
	seq := Run(jobs, Seed(7), Parallel(1))
	for _, par := range []int{2, 8, 16, 64} {
		p := Run(jobs, Seed(7), Parallel(par))
		for i := range seq.Results {
			if p.Results[i].Value != seq.Results[i].Value {
				t.Fatalf("parallel=%d job %d = %v, sequential = %v", par, i, p.Results[i].Value, seq.Results[i].Value)
			}
			if p.Results[i].Seed != seq.Results[i].Seed {
				t.Fatalf("parallel=%d job %d seed %d != sequential %d", par, i, p.Results[i].Seed, seq.Results[i].Seed)
			}
			if p.Results[i].Name != jobs[i].Name {
				t.Fatalf("result %d out of submission order: %q", i, p.Results[i].Name)
			}
		}
	}
	again := Run(jobs, Seed(7), Parallel(8))
	for i := range seq.Results {
		if again.Results[i].Value != seq.Results[i].Value {
			t.Fatalf("repeated run diverged at job %d", i)
		}
	}
	// A different campaign seed must change the derived streams.
	other := Run(jobs, Seed(8), Parallel(8))
	same := 0
	for i := range seq.Results {
		if other.Results[i].Value == seq.Results[i].Value {
			same++
		}
	}
	if same == len(seq.Results) {
		t.Fatal("campaign seed had no effect on any job")
	}
}

// One panicking job must degrade to a reported failure without taking
// down the campaign or its neighbours.
func TestPanicIsolation(t *testing.T) {
	jobs := simJobs(6)
	jobs[3] = Job{Name: "job[3]", Run: func(c *Ctx) (any, error) {
		panic("diverging simulation")
	}}
	s := Run(jobs, Seed(1), Parallel(4))
	if s.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", s.Failed)
	}
	r := s.Results[3]
	if !r.Panicked || r.Err == nil || !strings.Contains(r.Err.Error(), "diverging simulation") {
		t.Fatalf("panicking job result = %+v", r)
	}
	for i, r := range s.Results {
		if i != 3 && r.Failed() {
			t.Fatalf("healthy job %d failed: %v", i, r.Err)
		}
	}
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "job[3]") {
		t.Fatalf("Summary.Err = %v, want job[3] panic", err)
	}
	if f := s.Failures(); len(f) != 1 || f[0].Name != "job[3]" {
		t.Fatalf("Failures = %v", f)
	}
}

func TestJobErrorReported(t *testing.T) {
	boom := errors.New("boom")
	s := Run([]Job{
		{Name: "ok", Run: func(c *Ctx) (any, error) { return 1, nil }},
		{Name: "bad", Run: func(c *Ctx) (any, error) { return nil, boom }},
	}, Parallel(2))
	if s.Failed != 1 || !errors.Is(s.Results[1].Err, boom) {
		t.Fatalf("summary %+v", s)
	}
	if s.Results[1].Panicked {
		t.Fatal("plain error marked as panic")
	}
}

// A job stuck until its context ends is stopped by the Timeout deadline
// and reported timed out; its neighbour is unaffected.
func TestTimeoutFencesStuckJob(t *testing.T) {
	s := Run([]Job{
		{Name: "stuck", Run: func(c *Ctx) (any, error) { <-c.Context().Done(); return nil, nil }},
		{Name: "quick", Run: func(c *Ctx) (any, error) { return 42, nil }},
	}, Parallel(2), Timeout(50*time.Millisecond))
	r := s.Results[0]
	if !r.TimedOut || r.Canceled || r.Err == nil || !strings.Contains(r.Err.Error(), "timed out after 50ms") {
		t.Fatalf("stuck job result = %+v, want timeout", r)
	}
	if s.Results[1].Value != 42 || s.Results[1].Failed() {
		t.Fatalf("quick job result = %+v", s.Results[1])
	}
}

// The body runs on its worker goroutine: a job that ends within its
// deadline keeps its value and published stats, and a job that returns
// after it loses both, however much it computed.
func TestInlineRunnerOutcomes(t *testing.T) {
	publish := func(c *Ctx) {
		reg := stats.New()
		reg.Source("m", func(emit stats.Emit) { emit("n", 1) })
		c.Publish(reg)
	}
	s := Run([]Job{
		{Name: "ok", Run: func(c *Ctx) (any, error) { publish(c); return 7, nil }},
		{Name: "late", Run: func(c *Ctx) (any, error) {
			<-c.Context().Done()
			publish(c)
			return 8, nil
		}},
		{Name: "boom", Run: func(c *Ctx) (any, error) {
			publish(c)
			panic("boom")
		}},
	}, Parallel(1), Timeout(20*time.Millisecond))
	ok, late, boom := s.Results[0], s.Results[1], s.Results[2]
	if ok.Failed() || ok.Value != 7 || len(ok.Stats) == 0 {
		t.Fatalf("ok = %+v", ok)
	}
	if !late.TimedOut || late.Value != nil || late.Stats != nil || late.Wall < 20*time.Millisecond {
		t.Fatalf("late = %+v", late)
	}
	if !boom.Panicked || boom.Value != nil || boom.TimedOut || !strings.Contains(boom.Err.Error(), "boom") {
		t.Fatalf("boom = %+v", boom)
	}
	if len(boom.Stats) == 0 {
		t.Fatal("stats published before a panic were dropped")
	}
}

func TestDuplicateJobNamesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate job names accepted")
		}
	}()
	Run([]Job{
		{Name: "x", Run: func(c *Ctx) (any, error) { return nil, nil }},
		{Name: "x", Run: func(c *Ctx) (any, error) { return nil, nil }},
	})
}

func TestProgressCallback(t *testing.T) {
	var dones []int
	total := 0
	s := Run(simJobs(5), Parallel(3), OnProgress(func(done, n int, r Result) {
		dones = append(dones, done)
		total = n
	}))
	if len(dones) != 5 || total != 5 {
		t.Fatalf("progress calls %v, total %d", dones, total)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("done sequence %v not monotone", dones)
		}
	}
	if s.Wall <= 0 {
		t.Fatal("campaign wall time not measured")
	}
}

// Summary metrics land in the stats registry format, with per-job
// snapshots re-rooted under the campaign path, and natural ordering.
func TestSummaryMetricsFormat(t *testing.T) {
	jobs := []Job{
		{Name: "sweep/pt[0]", Run: func(c *Ctx) (any, error) {
			reg := stats.New()
			reg.Source("soc/pe[0]", func(emit stats.Emit) { emit("kernels", 3) })
			c.Publish(reg)
			return 1, nil
		}},
		{Name: "sweep/pt[1]", Run: func(c *Ctx) (any, error) { return nil, errors.New("nope") }},
	}
	s := Run(jobs, Named("fig3"), Parallel(2), Seed(5))
	ms := s.Metrics()

	get := func(path, name string) (float64, bool) {
		for _, m := range ms {
			if m.Path == path && m.Name == name {
				return m.Value, true
			}
		}
		return 0, false
	}
	if v, ok := get("fig3", "jobs"); !ok || v != 2 {
		t.Fatalf("fig3/jobs = %v, %v", v, ok)
	}
	if v, ok := get("fig3", "failed"); !ok || v != 1 {
		t.Fatalf("fig3/failed = %v, %v", v, ok)
	}
	if v, ok := get("fig3/sweep/pt[0]", "ok"); !ok || v != 1 {
		t.Fatalf("pt[0] ok = %v, %v", v, ok)
	}
	if v, ok := get("fig3/sweep/pt[1]", "ok"); !ok || v != 0 {
		t.Fatalf("pt[1] ok = %v, %v", v, ok)
	}
	if v, ok := get("fig3/sweep/pt[0]/soc/pe[0]", "kernels"); !ok || v != 3 {
		t.Fatalf("published snapshot not re-rooted: %v, %v", v, ok)
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := stats.ParseJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(ms) {
		t.Fatalf("JSON round trip lost metrics: %d vs %d", len(parsed), len(ms))
	}
}

func TestValueAndResultLookup(t *testing.T) {
	s := Run(simJobs(3), Seed(3))
	if v := s.Value("job[1]"); v != s.Results[1].Value {
		t.Fatalf("Value lookup = %v", v)
	}
	if v := s.Value("absent"); v != nil {
		t.Fatalf("absent job Value = %v, want nil", v)
	}
	if _, ok := s.Result("job[2]"); !ok {
		t.Fatal("Result lookup failed")
	}
}

// TestContextCancelBeforeStart: a campaign handed an already-canceled
// context reports every job Canceled without running any body.
func TestContextCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	jobs := []Job{{Name: "j", Run: func(c *Ctx) (any, error) { ran = true; return 1, nil }}}
	s := Run(jobs, WithContext(ctx))
	if ran {
		t.Fatal("canceled campaign still ran a job body")
	}
	r := s.Results[0]
	if !r.Canceled || !r.Failed() || s.Canceled != 1 || s.Failed != 1 {
		t.Fatalf("canceled job not reported: %+v, summary %+v", r, s)
	}
}

// TestContextCancelFencesRunningJob: cancellation mid-flight ends the
// body's context and reports the job Canceled, not timed out, even
// under a (longer) Timeout.
func TestContextCancelFencesRunningJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	jobs := []Job{{Name: "stuck", Run: func(c *Ctx) (any, error) {
		close(started)
		<-c.Context().Done()
		return nil, nil
	}}}
	go func() {
		<-started
		cancel()
	}()
	s := Run(jobs, WithContext(ctx), Timeout(time.Minute))
	r := s.Results[0]
	if !r.Canceled || r.TimedOut {
		t.Fatalf("want canceled (not timed out), got %+v", r)
	}
	if !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("cancel cause not wrapped: %v", r.Err)
	}
}

// TestContextObservableFromJob: Ctx.Context exposes the campaign context
// (and defaults to Background without one).
func TestContextObservableFromJob(t *testing.T) {
	ctx := context.WithValue(context.Background(), ctxKey{}, "v")
	var got, def any
	Run([]Job{{Name: "j", Run: func(c *Ctx) (any, error) {
		got = c.Context().Value(ctxKey{})
		return nil, nil
	}}}, WithContext(ctx))
	Run([]Job{{Name: "j", Run: func(c *Ctx) (any, error) {
		def = c.Context()
		return nil, nil
	}}})
	if got != "v" {
		t.Fatalf("campaign context not exposed: %v", got)
	}
	if def != context.Background() {
		t.Fatalf("default context not Background: %v", def)
	}
}

type ctxKey struct{}

// TestUncanceledContextPreservesDeterminism: attaching a live context
// must not perturb results relative to a context-free run.
func TestUncanceledContextPreservesDeterminism(t *testing.T) {
	jobs := simJobs(16)
	base := Run(jobs, Seed(9), Parallel(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx := Run(jobs, Seed(9), Parallel(4), WithContext(ctx))
	for i := range base.Results {
		if base.Results[i].Value != withCtx.Results[i].Value {
			t.Fatalf("result %d drifted under WithContext: %v vs %v",
				i, base.Results[i].Value, withCtx.Results[i].Value)
		}
	}
}

// TestSummaryWriteJSONGoldenBytes pins the summary dump encoding: key
// ordering and float formatting must be byte-stable because the job
// service embeds these dumps in content-addressed cached results.
func TestSummaryWriteJSONGoldenBytes(t *testing.T) {
	s := &Summary{
		Name:     "g",
		Parallel: 2,
		Seed:     5,
		Failed:   1,
		Results: []Result{
			{Name: "a", Index: 0, Value: 1},
			{Name: "b", Index: 1, Err: errors.New("nope")},
		},
	}
	const golden = "{\n \"metrics\": [\n" +
		"  {\"path\":\"g\",\"name\":\"canceled\",\"value\":0},\n" +
		"  {\"path\":\"g\",\"name\":\"failed\",\"value\":1},\n" +
		"  {\"path\":\"g\",\"name\":\"jobs\",\"value\":2},\n" +
		"  {\"path\":\"g\",\"name\":\"parallel\",\"value\":2},\n" +
		"  {\"path\":\"g\",\"name\":\"wall_seconds\",\"value\":0},\n" +
		"  {\"path\":\"g/a\",\"name\":\"canceled\",\"value\":0},\n" +
		"  {\"path\":\"g/a\",\"name\":\"ok\",\"value\":1},\n" +
		"  {\"path\":\"g/a\",\"name\":\"panicked\",\"value\":0},\n" +
		"  {\"path\":\"g/a\",\"name\":\"timed_out\",\"value\":0},\n" +
		"  {\"path\":\"g/a\",\"name\":\"wall_seconds\",\"value\":0},\n" +
		"  {\"path\":\"g/b\",\"name\":\"canceled\",\"value\":0},\n" +
		"  {\"path\":\"g/b\",\"name\":\"ok\",\"value\":0},\n" +
		"  {\"path\":\"g/b\",\"name\":\"panicked\",\"value\":0},\n" +
		"  {\"path\":\"g/b\",\"name\":\"timed_out\",\"value\":0},\n" +
		"  {\"path\":\"g/b\",\"name\":\"wall_seconds\",\"value\":0}\n" +
		" ]\n}\n"
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != golden {
		t.Fatalf("summary dump drifted:\ngot:\n%s\nwant:\n%s", buf.String(), golden)
	}
}

// TestDeterministicMetricsDropWall: the deterministic view carries no
// wall-clock samples at any depth and no shard-width configuration, so
// the rendered dump is identical at every Parallel value.
func TestDeterministicMetricsDropWall(t *testing.T) {
	jobs := []Job{{Name: "j", Run: func(c *Ctx) (any, error) {
		reg := stats.New()
		reg.Source("x", func(emit stats.Emit) {
			emit("wall_seconds", 3.3) // published leaf must drop too
			emit("flits", 2)
		})
		c.Publish(reg)
		return 1, nil
	}}}
	for _, m := range Run(jobs, Named("d")).DeterministicMetrics() {
		if m.Name == "wall_seconds" || m.Name == "parallel" {
			t.Fatalf("%s leaked at %q", m.Name, m.Path)
		}
	}
	var dumps [2]bytes.Buffer
	for i, par := range []int{1, 4} {
		s := Run(jobs, Named("d"), Parallel(par))
		if err := stats.WriteMetricsJSON(&dumps[i], s.DeterministicMetrics()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(dumps[0].Bytes(), dumps[1].Bytes()) {
		t.Fatalf("deterministic dump varies with Parallel:\n%s\nvs\n%s",
			dumps[0].Bytes(), dumps[1].Bytes())
	}
	s := Run(jobs, Named("d"))
	if stats.Total(s.DeterministicMetrics(), "d/j/x", "flits") != 2 {
		t.Fatal("non-wall metrics lost")
	}
}
