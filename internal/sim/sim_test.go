package sim

import (
	"reflect"
	"testing"
)

func TestSingleClockCycles(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	var ticks int
	clk.AtCommitNamed("tick", func() { ticks++ })
	s.RunCycles(clk, 10)
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if clk.Cycle() != 10 {
		t.Fatalf("cycle = %d, want 10", clk.Cycle())
	}
	// Time of the 10th edge is 9 periods after the first (phase 0).
	if s.Now() != 9000 {
		t.Fatalf("now = %d, want 9000", s.Now())
	}
}

func TestPhaseOrdering(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	var order []string
	clk.Spawn("th", func(th *Thread) {
		for {
			order = append(order, "thread")
			th.Wait()
		}
	})
	clk.AtCommitNamed("commit", func() { order = append(order, "commit") })
	clk.AtMonitorNamed("monitor", func() { order = append(order, "monitor") })
	s.RunCycles(clk, 1)
	want := []string{"thread", "commit", "monitor"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestThreadWaitCounting(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 500, 0)
	var sawCycles []uint64
	clk.Spawn("counter", func(th *Thread) {
		for i := 0; i < 5; i++ {
			sawCycles = append(sawCycles, th.Cycle())
			th.Wait()
		}
	})
	s.RunCycles(clk, 8)
	if len(sawCycles) != 5 {
		t.Fatalf("thread ran %d iterations, want 5", len(sawCycles))
	}
	for i, c := range sawCycles {
		if c != uint64(i+1) {
			t.Fatalf("iteration %d saw cycle %d, want %d", i, c, i+1)
		}
	}
}

func TestMultiClockRatio(t *testing.T) {
	s := New()
	fast := s.AddClock("fast", 1000, 0)
	slow := s.AddClock("slow", 3000, 0)
	var fastN, slowN int
	fast.AtCommitNamed("count", func() { fastN++ })
	slow.AtCommitNamed("count", func() { slowN++ })
	s.Run(9001) // edges at 0..9000
	if fastN != 10 {
		t.Errorf("fast edges = %d, want 10", fastN)
	}
	if slowN != 4 {
		t.Errorf("slow edges = %d, want 4", slowN)
	}
}

func TestClockPhase(t *testing.T) {
	s := New()
	c := s.AddClock("c", 1000, 250)
	var firstEdge Time
	c.AtCommitNamed("first", func() {
		if firstEdge == 0 {
			firstEdge = s.Now()
		}
	})
	s.RunCycles(c, 1)
	if firstEdge != 250 {
		t.Fatalf("first edge at %d, want 250", firstEdge)
	}
}

func TestPausePostponesEdge(t *testing.T) {
	s := New()
	c := s.AddClock("c", 1000, 0)
	var edges []Time
	c.AtCommitNamed("edges", func() { edges = append(edges, s.Now()) })
	s.RunCycles(c, 1) // edge at 0
	c.Pause(2500)     // next edge would be 1000; pushed to 2500
	s.RunCycles(c, 2)
	if len(edges) != 3 || edges[1] != 2500 || edges[2] != 3500 {
		t.Fatalf("edges = %v, want [0 2500 3500]", edges)
	}
}

// TestCrossClockPause pins the multi-clock pause semantics the pausible
// FIFOs rely on. Clock "a" (name-earlier, so first in a coincident step)
// runs the FIFOs' conflict test against clock "b" at its edge at 200:
// pause b until 200+window when b's next edge falls inside the window.
func TestCrossClockPause(t *testing.T) {
	cases := []struct {
		name           string
		bPhase, window Time
		paused         bool
		wantB          []Time
	}{
		// b is due at 200 too: that edge was in the step's due set
		// before a's edge ran, so it still fires at 200, and the edge
		// after it lands on the pause deadline instead of at 300.
		{"coincident edge fires, next lands on deadline", 0, 130, true, []Time{0, 100, 200, 330, 430}},
		// b's next edge (250) lies outside [200, 240): no pause, no shift.
		{"window short of next edge is a no-op", 50, 40, false, []Time{50, 150, 250, 350, 450}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			a := s.AddClock("a", 100, 0)
			b := s.AddClock("b", 100, tc.bPhase)
			var aEdges, bEdges []Time
			paused := false
			a.AtCommitNamed("conflict", func() {
				aEdges = append(aEdges, a.Now())
				if a.Now() != 200 {
					return
				}
				if until := a.Now() + tc.window; b.NextEdge() < until {
					b.Pause(until)
					paused = true
				} else {
					b.Pause(until) // an uncovered pause must change nothing
				}
			})
			b.AtCommitNamed("edges", func() { bEdges = append(bEdges, b.Now()) })
			s.Run(500)
			if paused != tc.paused {
				t.Fatalf("conflict test paused=%v, want %v", paused, tc.paused)
			}
			if !reflect.DeepEqual(bEdges, tc.wantB) {
				t.Errorf("b edges = %v, want %v", bEdges, tc.wantB)
			}
			if want := []Time{0, 100, 200, 300, 400}; !reflect.DeepEqual(aEdges, want) {
				t.Errorf("a edges = %v, want %v", aEdges, want)
			}
		})
	}
}

func TestSetPeriod(t *testing.T) {
	s := New()
	c := s.AddClock("c", 1000, 0)
	var edges []Time
	c.AtCommitNamed("retune", func() {
		edges = append(edges, s.Now())
		if len(edges) == 2 {
			c.SetPeriod(400)
		}
	})
	s.RunCycles(c, 4)
	// edges: 0, 1000 (then period=400), 1400, 1800
	want := []Time{0, 1000, 1400, 1800}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges = %v, want %v", edges, want)
		}
	}
}

func TestStopFromThread(t *testing.T) {
	s := New()
	c := s.AddClock("c", 1000, 0)
	c.Spawn("stopper", func(th *Thread) {
		th.WaitN(3)
		th.Sim().Stop()
		th.Wait()
	})
	s.Run(Infinity - 1)
	if !s.Stopped() {
		t.Fatal("not stopped")
	}
	if c.Cycle() != 4 {
		t.Fatalf("stopped at cycle %d, want 4", c.Cycle())
	}
}

func TestThreadPanicBecomesError(t *testing.T) {
	s := New()
	c := s.AddClock("c", 1000, 0)
	c.Spawn("bad", func(th *Thread) {
		th.Wait()
		panic("boom")
	})
	s.RunCycles(c, 5)
	if s.Err() == nil {
		t.Fatal("expected error from panicking thread")
	}
}

func TestThreadRetires(t *testing.T) {
	s := New()
	c := s.AddClock("c", 1000, 0)
	ran := 0
	c.Spawn("short", func(th *Thread) {
		ran++
	})
	s.RunCycles(c, 5)
	if ran != 1 {
		t.Fatalf("retired thread body ran %d times", ran)
	}
}

func TestCoincidentEdgesDeterministicOrder(t *testing.T) {
	s := New()
	// Registration order b, a — but firing order must be name order a, b.
	b := s.AddClock("b", 1000, 0)
	a := s.AddClock("a", 1000, 0)
	var order []string
	a.AtCommitNamed("order", func() { order = append(order, "a") })
	b.AtCommitNamed("order", func() { order = append(order, "b") })
	s.RunCycles(a, 1)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]", order)
	}
}

func TestTotalEdges(t *testing.T) {
	s := New()
	a := s.AddClock("a", 1000, 0)
	s.AddClock("b", 2000, 0)
	s.RunCycles(a, 4) // a: 0,1k,2k,3k ; b: 0,2k
	if s.TotalEdges() != 6 {
		t.Fatalf("TotalEdges = %d, want 6", s.TotalEdges())
	}
}

func TestAccessors(t *testing.T) {
	s := New()
	c := s.AddClock("main", 1250, 0)
	if c.Name() != "main" || c.Period() != 1250 {
		t.Fatalf("accessors: %s %d", c.Name(), c.Period())
	}
	var thName string
	var thClk *Clock
	c.Spawn("worker", func(th *Thread) {
		thName = th.Name()
		thClk = th.Clock()
	})
	s.RunCycles(c, 1)
	if thName != "worker" || thClk != c {
		t.Fatalf("thread accessors: %q %v", thName, thClk)
	}
}

func TestSetPeriodRejectsZero(t *testing.T) {
	s := New()
	c := s.AddClock("c", 1000, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero period")
		}
	}()
	c.SetPeriod(0)
}

// Every registrar rejects an empty name, so each entry of Processes can
// be told apart.
func TestUnnamedRegistrationPanics(t *testing.T) {
	regs := []struct {
		name string
		reg  func(c *Clock)
	}{
		{"Spawn", func(c *Clock) { c.Spawn("", func(*Thread) {}) }},
		{"AtCommitNamed", func(c *Clock) { c.AtCommitNamed("", func() {}) }},
		{"AtCommitOnTouch", func(c *Clock) { c.AtCommitOnTouch("", func() bool { return false }) }},
		{"AtMonitorNamed", func(c *Clock) { c.AtMonitorNamed("", func() {}) }},
	}
	for _, r := range regs {
		t.Run(r.name, func(t *testing.T) {
			c := New().AddClock("c", 1000, 0)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with an empty name did not panic", r.name)
				}
			}()
			r.reg(c)
		})
	}
}

// Close retires every started thread wherever it is suspended (in Wait,
// parked on WaitN, parked on WaitOn), running its deferred calls and
// recording no error; a thread that never started stays untouched.
func TestCloseRetiresThreads(t *testing.T) {
	s := New()
	c := s.AddClock("c", 1000, 0)
	late := s.AddClock("late", 1000, 1_000_000) // first edge after the run
	var unwound []string
	body := func(name string, wait func(th *Thread)) {
		c.Spawn(name, func(th *Thread) {
			defer func() { unwound = append(unwound, name) }()
			for {
				wait(th)
			}
		})
	}
	body("running", func(th *Thread) { th.Wait() })
	body("countdown", func(th *Thread) { th.WaitN(1000) })
	body("predicate", func(th *Thread) { th.WaitOn(func() bool { return false }, &Event{}) })
	lateRan := false
	late.Spawn("never", func(th *Thread) { lateRan = true })
	s.RunCycles(c, 3)

	s.Close()
	if want := []string{"running", "countdown", "predicate"}; !reflect.DeepEqual(unwound, want) {
		t.Fatalf("unwound %v, want %v", unwound, want)
	}
	if s.Err() != nil {
		t.Fatalf("Close recorded %v", s.Err())
	}
	if lateRan {
		t.Fatal("Close started a thread that never ran")
	}
	if !s.Stopped() || s.Step() {
		t.Fatal("closed simulator still steps")
	}
	s.Close() // idempotent
	if len(unwound) != 3 {
		t.Fatalf("second Close unwound again: %v", unwound)
	}
}

func TestKernelMetricsSource(t *testing.T) {
	s := New()
	clk := s.AddClock("main", 1000, 0)
	clk.Spawn("t", func(th *Thread) {
		for {
			th.Wait()
		}
	})
	reg := s.Metrics() // registered before running; polls at snapshot time
	s.RunCycles(clk, 5)
	get := func(path, name string) float64 {
		for _, m := range reg.Snapshot() {
			if m.Path == path && m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("metric %s.%s missing", path, name)
		return 0
	}
	if v := get("sim", "total_edges"); v != 5 {
		t.Fatalf("total_edges = %v, want 5", v)
	}
	if v := get("sim/clk[main]", "cycles"); v != 5 {
		t.Fatalf("clk cycles = %v, want 5", v)
	}
	if v := get("sim/clk[main]", "processes"); v != 1 {
		t.Fatalf("processes = %v, want 1", v)
	}
}

func TestProcessesIntrospection(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	clk.Spawn("dut/worker", func(th *Thread) {})
	clk.AtCommitNamed("dut/latch", func() {})
	clk.AtMonitorNamed("dut/mon", func() {})

	ps := s.Processes()
	byPhase := map[string][]string{}
	for _, p := range ps {
		if p.Clock != "clk" {
			t.Fatalf("process %+v has wrong clock", p)
		}
		byPhase[p.Phase] = append(byPhase[p.Phase], p.Name)
	}
	checks := []struct {
		phase, name string
	}{
		{"thread", "dut/worker"},
		{"commit", "dut/latch"},
		{"monitor", "dut/mon"},
	}
	for _, c := range checks {
		found := false
		for _, n := range byPhase[c.phase] {
			found = found || n == c.name
		}
		if !found {
			t.Fatalf("phase %s missing process %q: %v", c.phase, c.name, byPhase)
		}
	}
	if len(ps) != len(checks) {
		t.Fatalf("processes = %v, want one per phase", ps)
	}
}

func BenchmarkThreadSync(b *testing.B) {
	s := New()
	c := s.AddClock("c", 1000, 0)
	for i := 0; i < 8; i++ {
		c.Spawn("t", func(th *Thread) {
			for {
				th.Wait()
			}
		})
	}
	b.ResetTimer()
	s.RunCycles(c, uint64(b.N))
}
