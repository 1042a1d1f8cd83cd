package sim

import (
	"reflect"
	"testing"
)

// A thread parked on clock b, woken by a notify from a thread on clock
// a, resumes on the same b cycle as a polling loop, whether or not the
// notifying edge coincides with one of b's. While it sleeps, b's edges
// are skipped.
func TestCrossClockNotifyWakesAsleepClock(t *testing.T) {
	run := func(park bool) ([]uint64, uint64) {
		s := New()
		a := s.AddClock("a", 300, 0)
		b := s.AddClock("b", 500, 0)
		count := 0
		var ev Event
		evs := []*Event{&ev}
		a.Spawn("writer", func(th *Thread) {
			for {
				// a's 6th edge (1500 ps) coincides with b's 4th; its 13th
				// (3600 ps) falls between two of b's.
				if c := th.Cycle(); c == 6 || c == 13 {
					count++
					ev.Notify()
				}
				th.Wait()
			}
		})
		var seen []uint64
		b.Spawn("waiter", func(th *Thread) {
			for i := 1; i <= 2; i++ {
				if park {
					th.WaitOn(func() bool { return count >= i }, evs...)
				} else {
					for {
						th.Wait()
						if count >= i {
							break
						}
					}
				}
				seen = append(seen, th.Cycle())
			}
			for {
				th.WaitOn(func() bool { return false }, evs...)
			}
		})
		s.Run(6000)
		return seen, b.skippedEdges()
	}
	parked, skipped := run(true)
	polled, _ := run(false)
	if want := []uint64{4, 9}; !reflect.DeepEqual(polled, want) {
		t.Fatalf("polling loop woke at b cycles %v, want %v", polled, want)
	}
	if !reflect.DeepEqual(parked, polled) {
		t.Fatalf("parked thread woke at b cycles %v, polling loop at %v", parked, polled)
	}
	if skipped == 0 {
		t.Fatal("no edge of the sleeping clock was skipped")
	}
}

// A clock whose every slot is asleep still counts its edges — Cycle,
// Committed and TotalEdges — and its edges still move with Pause and
// SetPeriod, including a pause landing on a coincident edge: an observer
// on another clock sees exactly what it sees when the same clock polls.
func TestAsleepClockKeepsTime(t *testing.T) {
	type obs struct {
		now, next      Time
		cycle, commits uint64
		total          uint64
	}
	run := func(park bool) ([]obs, uint64) {
		s := New()
		a := s.AddClock("a", 100, 0)
		b := s.AddClock("b", 100, 0)
		b.Spawn("idle", func(th *Thread) {
			for {
				if park {
					th.WaitOn(func() bool { return false }, &Event{})
				} else {
					th.Wait()
				}
			}
		})
		var seen []obs
		a.AtCommitNamed("watch", func() {
			seen = append(seen, obs{b.Now(), b.NextEdge(), b.Cycle(), b.Committed(), s.TotalEdges()})
			switch a.Now() {
			case 300:
				// b is due at 300 as well: that edge still fires, and
				// the one after lands on the pause deadline.
				b.Pause(a.Now() + 130)
			case 800:
				b.SetPeriod(70)
			case 1200:
				b.Pause(b.NextEdge() + 25)
			}
		})
		s.Run(2000)
		return seen, b.skippedEdges()
	}
	asleep, skipped := run(true)
	awake, _ := run(false)
	if !reflect.DeepEqual(asleep, awake) {
		t.Fatalf("asleep clock observed as\n%v\nawake clock as\n%v", asleep, awake)
	}
	if skipped == 0 {
		t.Fatal("no edge of the asleep clock was skipped")
	}
}

// A thread, a method and a commit hook registered after a clock has
// begun skipping its edges are serviced on the clock's next edge, and
// the clock goes back to skipping once the thread has finished and the
// method sleeps.
func TestLateRegistrationIsServiced(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	evs := []*Event{{}}
	clk.Spawn("sleeper", func(th *Thread) {
		th.WaitOn(func() bool { return false }, evs...)
	})
	s.RunCycles(clk, 5)
	if clk.skippedEdges() == 0 {
		t.Fatal("no edge skipped before the late registrations")
	}
	var threadAt, methodAt, hookAt uint64
	clk.Spawn("late-thread", func(th *Thread) { threadAt = th.Cycle() })
	clk.Method("late-method", func(th *Thread) {
		methodAt = th.Cycle()
		th.WaitOn(func() bool { return false }, evs...)
	})
	clk.AtCommitOnTouch("late-hook", func() bool { hookAt = clk.Cycle(); return false }).Touch()
	s.RunCycles(clk, 1)
	if threadAt != 6 || methodAt != 6 || hookAt != 6 {
		t.Fatalf("late thread ran at %d, method at %d, hook at %d; want all at 6", threadAt, methodAt, hookAt)
	}
	before := clk.skippedEdges()
	s.RunCycles(clk, 5)
	if clk.skippedEdges() <= before {
		t.Fatal("the clock did not skip again once its late processes slept")
	}
}

// A method that panics retires, and its slot counts as asleep: the
// clock's other asleep slots keep the edge skippable.
func TestPanickedMethodStaysAsleep(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	clk.Spawn("sleeper", func(th *Thread) {
		th.WaitOn(func() bool { return false }, &Event{})
	})
	clk.Method("bad", func(th *Thread) {
		if th.Cycle() == 3 {
			panic("boom")
		}
	})
	s.RunCycles(clk, 5)
	if s.Err() == nil {
		t.Fatal("the method's panic did not surface as an error")
	}
	// Stop ended the run at the panicking edge. Clear the stop flag to
	// look at the edges a longer run would have had after it.
	s.stopped.Store(false)
	before := clk.skippedEdges()
	s.RunCycles(clk, 4)
	if clk.Cycle() != 7 || clk.skippedEdges() != before+4 {
		t.Fatalf("after the panic: cycle %d with %d edges skipped, want cycle 7 with %d", clk.Cycle(), clk.skippedEdges(), before+4)
	}
}

// The skip count is exact for a lone thread: a WaitN countdown keeps its
// clock awake, and every edge after the one where its predicate first
// evaluates false is skipped.
func TestSkipCount(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	clk.Spawn("t", func(th *Thread) {
		th.WaitN(4)
		th.WaitOn(func() bool { return false }, &Event{})
	})
	s.RunCycles(clk, 5)
	if clk.skippedEdges() != 0 {
		t.Fatalf("%d edges skipped during WaitN, want 0", clk.skippedEdges())
	}
	s.RunCycles(clk, 10)
	if clk.skippedEdges() != 9 {
		t.Fatalf("%d edges skipped, want 9", clk.skippedEdges())
	}
}
