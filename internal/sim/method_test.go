package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// A method is a thread without a coroutine: the same step registered
// with Method, and run by a thread as for { step(th) }, must observe the
// same cycles under every way of parking — a plain re-run (a return
// without parking, which the thread spells Wait), WaitN, and WaitOn
// woken by notifies from slots before and after its own in the edge.
func TestMethodMatchesThreadLoop(t *testing.T) {
	run := func(asMethod bool) []string {
		s := New()
		clk := s.AddClock("clk", 1000, 0)
		var a, b bool
		var ev Event
		evs := []*Event{&ev}
		// The earlier slot raises a within the edge; the later one raises
		// b, which a process in between sees only on the next edge.
		clk.Spawn("early", func(th *Thread) {
			for {
				if next := th.Cycle()%7 == 0; next != a {
					a = next
					ev.Notify()
				}
				th.Wait()
			}
		})
		var seen []string
		k := 0
		ready := func() bool { return a || b }
		step := func(th *Thread, rerun func()) {
			k++
			switch k % 4 {
			case 0:
				seen = append(seen, fmt.Sprintf("rerun@%d", th.Cycle()))
				rerun()
			case 1:
				seen = append(seen, fmt.Sprintf("waitn@%d", th.Cycle()))
				th.WaitN(3)
			default:
				seen = append(seen, fmt.Sprintf("waiton@%d a=%v b=%v", th.Cycle(), a, b))
				th.WaitOn(ready, evs...)
			}
		}
		if asMethod {
			clk.Method("dut", func(th *Thread) { step(th, func() {}) })
		} else {
			clk.Spawn("dut", func(th *Thread) {
				for {
					step(th, th.Wait)
				}
			})
		}
		clk.Spawn("late", func(th *Thread) {
			for {
				if next := th.Cycle()%5 == 2; next != b {
					b = next
					ev.Notify()
				}
				th.Wait()
			}
		})
		s.RunCycles(clk, 80)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	method, thread := run(true), run(false)
	if !slices.Equal(method, thread) {
		t.Fatalf("method saw\n%v\nthread saw\n%v", method, thread)
	}
	// Both wake-up sources must have fired for the comparison to cover
	// the mid-edge notifies.
	joined := strings.Join(method, " ")
	if !strings.Contains(joined, "a=true") || !strings.Contains(joined, "b=true") {
		t.Fatalf("run never woke on both notifiers: %v", method)
	}
}

// A panicking step stops the run with the panic as Err, and the method
// is not called again.
func TestMethodPanicBecomesErr(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	calls := 0
	clk.Method("dut/boom", func(th *Thread) {
		calls++
		if th.Cycle() == 3 {
			panic("bad state")
		}
	})
	s.RunCycles(clk, 10)
	err := s.Err()
	if err == nil || !strings.Contains(err.Error(), `method "dut/boom" panicked: bad state`) {
		t.Fatalf("Err = %v, want the method's panic", err)
	}
	if clk.Cycle() != 3 || calls != 3 {
		t.Fatalf("stopped at cycle %d after %d calls, want 3 and 3", clk.Cycle(), calls)
	}
	if s.Step() {
		t.Fatal("Step ran after a method panicked")
	}
}

// Wait in a method panics, and the panic names the method.
func TestMethodWaitPanics(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	clk.Method("dut/waiter", func(th *Thread) { th.Wait() })
	s.RunCycles(clk, 5)
	err := s.Err()
	if err == nil || !strings.Contains(err.Error(), `Wait in method "dut/waiter"`) {
		t.Fatalf("Err = %v, want a Wait-in-method panic naming dut/waiter", err)
	}
	if clk.Cycle() != 1 {
		t.Fatalf("stopped at cycle %d, want 1", clk.Cycle())
	}
}

// Close retires threads and leaves methods alone: it neither calls a
// step nor records an error.
func TestCloseSkipsMethods(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	calls, retired := 0, false
	clk.Method("m", func(th *Thread) { calls++ })
	clk.Spawn("t", func(th *Thread) {
		defer func() { retired = true }()
		for {
			th.Wait()
		}
	})
	s.RunCycles(clk, 4)
	s.Close()
	s.Close()
	if calls != 4 || !retired || s.Err() != nil {
		t.Fatalf("calls %d retired %v err %v, want 4 true nil", calls, retired, s.Err())
	}
}

// Processes lists methods with phase "method", in their slots among the
// threads.
func TestProcessesListsMethodsInSlotOrder(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	clk.Spawn("a", func(th *Thread) {})
	clk.Method("b", func(th *Thread) {})
	clk.Spawn("c", func(th *Thread) {})
	clk.Method("d", func(th *Thread) {})
	clk.AtMonitorNamed("e", func() {})
	var got []string
	for _, p := range s.Processes() {
		got = append(got, p.Phase+" "+p.Name)
	}
	want := []string{"thread a", "method b", "thread c", "method d", "monitor e"}
	if !slices.Equal(got, want) {
		t.Fatalf("Processes = %v, want %v", got, want)
	}
}

// An edge that runs methods — re-running, parking on a countdown and
// parking on an event — allocates nothing, on a clock with a few slots
// and on one with more slots than a word of its ready set, where the
// notify crosses words.
func TestMethodEdgeAllocatesNothing(t *testing.T) {
	for _, idle := range []int{0, 64} {
		s := New()
		clk := s.AddClock("clk", 1000, 0)
		var ev Event
		evs := []*Event{&ev}
		flag := false
		ready := func() bool { return flag }
		clk.Method("rerun", func(th *Thread) {
			flag = !flag
			ev.Notify()
		})
		never := func() bool { return false }
		for i := 0; i < idle; i++ {
			var idleEv Event
			idleEvs := []*Event{&idleEv}
			clk.Method(fmt.Sprintf("idle%d", i), func(th *Thread) { th.WaitOn(never, idleEvs...) })
		}
		clk.Method("waitn", func(th *Thread) { th.WaitN(2) })
		clk.Method("waiton", func(th *Thread) { th.WaitOn(ready, evs...) })
		s.Step()
		if n := testing.AllocsPerRun(100, func() { s.Step() }); n != 0 {
			t.Fatalf("%d slots: %v allocations per edge, want 0", idle+3, n)
		}
	}
}
