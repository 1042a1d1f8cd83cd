package connections

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

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

// benchChannel returns the core of a disarmed depth-4 buffer on a fresh
// simulator, the channel the overhead guard and benchmarks drive.
func benchChannel() *core[int] {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	return Buffer(clk, "bench", 4, NewOut[int](), NewIn[int]()).c
}

// portOps runs n iterations of the channel hot path on c: a push, a pop
// and a commit. With check set, each operation also tests the cached
// trace subject, the one branch a disarmed port adds to the bare
// primitives. Both settings run this one compiled loop, so they differ
// in that test alone and not in code layout.
func portOps(c *core[int], n int, check bool) {
	var v int
	for i := 0; i < n; i++ {
		ok := c.tryPush(i)
		if check && c.sub != nil {
			c.emitPush(ok)
		}
		ok = c.tryPop(&v)
		if check && c.sub != nil {
			c.emitPop(ok)
		}
		c.commit()
	}
}

func benchPortOps(b *testing.B, check bool) {
	c := benchChannel()
	b.ResetTimer()
	portOps(c, b.N, check)
}

func BenchmarkDisarmedPortOpsBaseline(b *testing.B) { benchPortOps(b, false) }
func BenchmarkDisarmedPortOpsTraced(b *testing.B)   { benchPortOps(b, true) }

// TestDisarmedOverheadGuard fails when the disarmed trace check costs
// more than the regression budget over the bare primitives. It times
// many short blocks of portOps with and without the check, interleaved
// and alternating which side goes first, and takes the median of the
// paired ratios: drift and scheduler noise move both halves of a pair
// alike, and an interrupted block moves one ratio, not the median. Perf
// assertions are still machine-sensitive, so the guard only runs when
// TRACE_OVERHEAD_GUARD=1 (the Makefile check tier and CI set it); plain
// `go test ./...` skips it.
func TestDisarmedOverheadGuard(t *testing.T) {
	if os.Getenv("TRACE_OVERHEAD_GUARD") != "1" {
		t.Skip("set TRACE_OVERHEAD_GUARD=1 to run the overhead guard")
	}
	const (
		limitPct = 2.0
		blocks   = 401
		ops      = 4000 // per block and side, tens of microseconds
	)
	c := benchChannel()
	timed := func(check bool) float64 {
		start := time.Now()
		portOps(c, ops, check)
		return float64(time.Since(start))
	}
	timed(false)
	timed(true)
	ratios := make([]float64, blocks)
	var base, traced float64
	for i := range ratios {
		var b, tr float64
		if i%2 == 0 {
			b, tr = timed(false), timed(true)
		} else {
			tr, b = timed(true), timed(false)
		}
		ratios[i] = tr / b
		base += b
		traced += tr
	}
	slices.Sort(ratios)
	overhead := (ratios[blocks/2] - 1) * 100
	t.Logf("baseline %.2f ns/op, traced-disarmed %.2f ns/op, median paired overhead %.2f%% over %d blocks (budget %.1f%%)",
		base/blocks/ops, traced/blocks/ops, overhead, blocks, limitPct)
	if overhead > limitPct {
		t.Fatalf("disarmed tracing overhead %.2f%% exceeds %.1f%% budget", overhead, limitPct)
	}
}
