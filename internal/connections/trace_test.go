package connections

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// runTracedPipeline is the canonical small traced design: a producer
// pushing n values through a depth-2 buffer into a consumer that drains
// every other cycle, so the channel exercises back-pressure, starvation
// and the full occupancy range. It returns the armed recorder.
func runTracedPipeline(t *testing.T, n int) *trace.Recorder {
	t.Helper()
	rec := trace.NewRecorder()
	s := sim.New()
	s.Arm(rec)
	clk := s.AddClock("clk", 1000, 0)
	out, in := NewOut[int](), NewIn[int]()
	Buffer(clk, "tb/pipe", 2, out, in)
	clk.Spawn("producer", func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			out.Push(th, i)
			th.Wait()
		}
	})
	got := 0
	clk.Spawn("consumer", func(th *sim.Thread) {
		for got < n {
			if _, ok := in.PopNB(th); ok {
				got++
			}
			th.WaitN(2)
		}
		th.Sim().Stop()
	})
	s.Run(sim.Time(uint64(n)*100_000 + 1_000_000))
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("delivered %d/%d", got, n)
	}
	return rec
}

func TestArmedChannelRecordsHandshakeEvents(t *testing.T) {
	rec := runTracedPipeline(t, 8)
	var pushes, pops, fulls, valids, occs uint64
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindPush:
			pushes++
		case trace.KindPop:
			pops++
		case trace.KindFull:
			fulls++
		case trace.KindValid:
			valids++
		case trace.KindOcc:
			occs++
		}
	}
	if pushes != 8 || pops != 8 {
		t.Fatalf("pushes=%d pops=%d, want 8 each", pushes, pops)
	}
	// The consumer drains at half the producer's rate, so the depth-2
	// buffer must refuse pushes at some point.
	if fulls == 0 {
		t.Fatal("no back-pressure recorded on a congested channel")
	}
	if valids == 0 || occs == 0 {
		t.Fatalf("no level events: valids=%d occs=%d", valids, occs)
	}
	if paths := rec.Paths(); len(paths) != 1 || paths[0] != "tb/pipe" {
		t.Fatalf("Paths = %v", paths)
	}
}

func TestDisarmedSimRecordsNothing(t *testing.T) {
	s := sim.New()
	if s.Tracer() != nil {
		t.Fatal("fresh simulator is armed")
	}
	clk := s.AddClock("clk", 1000, 0)
	out, in := NewOut[int](), NewIn[int]()
	ch := Buffer(clk, "ch", 2, out, in)
	if ch.c.sub != nil {
		t.Fatal("disarmed channel cached a trace subject")
	}
}

// TestTracedRunIsCycleIdenticalToUntraced is the zero-cost claim's
// functional half: arming changes nothing observable — same delivery
// order, same per-channel counters, same cycle counts.
func TestTracedRunIsCycleIdenticalToUntraced(t *testing.T) {
	run := func(armed bool) (Stats, uint64) {
		s := sim.New()
		if armed {
			s.Arm(trace.NewRecorder())
		}
		clk := s.AddClock("clk", 1000, 0)
		out, in := NewOut[int](), NewIn[int]()
		ch := Buffer(clk, "ch", 2, out, in, WithStall(0.2, 5))
		n := 50
		clk.Spawn("producer", func(th *sim.Thread) {
			for i := 0; i < n; i++ {
				out.Push(th, i)
			}
		})
		got := 0
		var done uint64
		clk.Spawn("consumer", func(th *sim.Thread) {
			for got < n {
				if _, ok := in.PopNB(th); ok {
					got++
				}
				th.Wait()
			}
			done = th.Cycle()
			th.Sim().Stop()
		})
		s.Run(1_000_000_000)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		return ch.Stats(), done
	}
	sa, ca := run(false)
	sb, cb := run(true)
	if ca != cb {
		t.Fatalf("cycle count diverged: untraced %d vs traced %d", ca, cb)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("channel stats diverged:\nuntraced %+v\ntraced   %+v", sa, sb)
	}
}

func TestTracedEventStreamDeterministic(t *testing.T) {
	a := runTracedPipeline(t, 16).Events()
	b := runTracedPipeline(t, 16).Events()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("event streams diverge: %d vs %d events", len(a), len(b))
	}
}

// TestPipelineTraceVCDGolden locks the full render path — recorder →
// analysis-event filtering → scoped VCD — against a checked-in dump.
// Regenerate with: go test ./internal/connections -run Golden -update
func TestPipelineTraceVCDGolden(t *testing.T) {
	rec := runTracedPipeline(t, 8)
	var buf bytes.Buffer
	if _, _, err := rec.WriteVCD(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "pipeline_trace.vcd")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("VCD differs from golden %s (len %d vs %d); rerun with -update if the change is intended",
			golden, buf.Len(), len(want))
	}
}

// benchPortOps measures the per-operation channel hot path on a
// disarmed channel: the bare untraced primitives (the pre-tracing
// baseline) against the exact pattern the ports execute now — primitive
// plus one inline nil-check of the cached trace subject.
func benchPortOps(b *testing.B, traced bool) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in := NewOut[int](), NewIn[int]()
	ch := Buffer(clk, "bench", 4, out, in)
	c := ch.c
	var v int
	b.ResetTimer()
	if traced {
		for i := 0; i < b.N; i++ {
			ok := c.tryPush(i)
			if c.sub != nil {
				c.emitPush(ok)
			}
			ok = c.tryPop(&v)
			if c.sub != nil {
				c.emitPop(ok)
			}
			c.commit()
		}
	} else {
		for i := 0; i < b.N; i++ {
			c.tryPush(i)
			c.tryPop(&v)
			c.commit()
		}
	}
}

func BenchmarkDisarmedPortOpsBaseline(b *testing.B) { benchPortOps(b, false) }
func BenchmarkDisarmedPortOpsTraced(b *testing.B)   { benchPortOps(b, true) }

// TestDisarmedOverheadGuard fails when the disarmed traced path costs
// more than the regression budget over the untraced primitives. Perf
// assertions are inherently machine-sensitive, so the guard only runs
// when TRACE_OVERHEAD_GUARD=1 (the Makefile check tier and CI set it);
// plain `go test ./...` skips it.
func TestDisarmedOverheadGuard(t *testing.T) {
	if os.Getenv("TRACE_OVERHEAD_GUARD") != "1" {
		t.Skip("set TRACE_OVERHEAD_GUARD=1 to run the overhead guard")
	}
	const limitPct = 2.0
	// Interleaved best-of-R: pairing the two measurements round by round
	// and taking each side's minimum cancels frequency drift and
	// scheduler noise, which on shared machines exceeds the budget.
	const rounds = 6
	nsop := func(r testing.BenchmarkResult) float64 {
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	var base, traced float64
	for i := 0; i < rounds; i++ {
		if b := nsop(testing.Benchmark(BenchmarkDisarmedPortOpsBaseline)); base == 0 || b < base {
			base = b
		}
		if tr := nsop(testing.Benchmark(BenchmarkDisarmedPortOpsTraced)); traced == 0 || tr < traced {
			traced = tr
		}
	}
	overhead := (traced - base) / base * 100
	t.Logf("baseline %.2f ns/op, traced-disarmed %.2f ns/op, overhead %.2f%% (budget %.1f%%)",
		base, traced, overhead, limitPct)
	if overhead > limitPct {
		t.Fatalf("disarmed tracing overhead %.2f%% exceeds %.1f%% budget", overhead, limitPct)
	}
}
