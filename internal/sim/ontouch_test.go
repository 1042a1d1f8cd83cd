package sim

import (
	"reflect"
	"strings"
	"testing"
)

// An on-touch commit hook runs on exactly the edges it was touched in,
// once however often it was touched, plus every edge after for which it
// asked to run again.
func TestAtCommitOnTouchRunsOnTouchedEdges(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	var ran []uint64
	drain := 0
	h := clk.AtCommitOnTouch("lazy", func() bool {
		ran = append(ran, clk.Cycle())
		if drain > 0 {
			drain--
		}
		return drain > 0
	})
	clk.Spawn("toucher", func(th *Thread) {
		for {
			switch th.Cycle() {
			case 2:
				h.Touch()
				h.Touch()
			case 5:
				drain = 3 // runs on 5, then again on 6 and 7
				h.Touch()
			}
			th.Wait()
		}
	})
	clk.AtDrive(func() {
		if clk.Cycle() == 10 {
			h.Touch()
		}
	})
	s.RunCycles(clk, 12)
	if want := []uint64{2, 5, 6, 7, 10}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("hook ran on cycles %v, want %v", ran, want)
	}
}

// Committed counts completed commit phases: a thread in phase 1 does not
// see its own edge counted, a monitor does.
func TestCommittedCountsCompletedCommitPhases(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	var inThread, inMonitor []uint64
	clk.Spawn("t", func(th *Thread) {
		for {
			inThread = append(inThread, clk.Committed())
			th.Wait()
		}
	})
	clk.AtMonitor(func() { inMonitor = append(inMonitor, clk.Committed()) })
	s.RunCycles(clk, 3)
	if !reflect.DeepEqual(inThread, []uint64{0, 1, 2}) || !reflect.DeepEqual(inMonitor, []uint64{1, 2, 3}) {
		t.Fatalf("Committed: threads saw %v, monitors %v", inThread, inMonitor)
	}
}

func TestTouchInCommitOrMonitorPanics(t *testing.T) {
	for _, phase := range []string{"commit", "monitor"} {
		s := New()
		clk := s.AddClock("clk", 1000, 0)
		h := clk.AtCommitOnTouch("ch", func() bool { return false })
		touch := func() { h.Touch() }
		if phase == "commit" {
			clk.AtCommit(touch)
		} else {
			clk.AtMonitor(touch)
		}
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, `"ch"`) {
					t.Errorf("touch in %s: recovered %v, want a panic naming the hook", phase, r)
				}
			}()
			s.Step()
		}()
	}
}

// On-touch hooks are listed by Processes under the commit phase, in
// registration order among the every-edge hooks.
func TestProcessesListsOnTouchHooks(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	clk.AtCommitNamed("a", func() {})
	clk.AtCommitOnTouch("b", func() bool { return false })
	clk.AtCommitNamed("c", func() {})
	var got []string
	for _, p := range clk.Processes() {
		got = append(got, p.Phase+":"+p.Name)
	}
	if want := []string{"commit:a", "commit:b", "commit:c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Processes = %v, want %v", got, want)
	}
}

// Touching and running listed hooks reuses the clock's list: a steady
// edge allocates nothing.
func TestTouchAllocatesNothing(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	var hs []*OnTouch
	for i := 0; i < 64; i++ {
		hs = append(hs, clk.AtCommitOnTouch("h", func() bool { return i%3 == 0 }))
	}
	clk.AtDrive(func() {
		for _, h := range hs {
			h.Touch()
		}
	})
	s.Step()
	if n := testing.AllocsPerRun(100, func() { s.Step() }); n != 0 {
		t.Fatalf("%v allocations per edge, want 0", n)
	}
}
