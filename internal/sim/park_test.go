package sim

import (
	"fmt"
	"slices"
	"testing"
)

// Parking is an execution optimization only: a thread using WaitOn must
// observe exactly the cycle the equivalent polling loop observes, when
// the writer notifies the event on every change.
func TestWaitOnMatchesPollingLoop(t *testing.T) {
	run := func(park bool) []uint64 {
		s := New()
		clk := s.AddClock("clk", 1000, 0)
		flag := false
		var ev Event
		evs := []*Event{&ev}
		clk.AtCommitNamed("flag", func() {
			// Raise the flag on cycles 4 and 9, clear it the cycle after.
			if next := clk.Cycle() == 4 || clk.Cycle() == 9; next != flag {
				flag = next
				ev.Notify()
			}
		})
		var seen []uint64
		clk.Spawn("waiter", func(th *Thread) {
			for i := 0; i < 2; i++ {
				if park {
					th.WaitOn(func() bool { return flag }, evs...)
				} else {
					for {
						th.Wait()
						if flag {
							break
						}
					}
				}
				seen = append(seen, th.Cycle())
			}
		})
		s.RunCycles(clk, 20)
		return seen
	}
	parked, polled := run(true), run(false)
	if len(parked) != 2 || len(polled) != 2 {
		t.Fatalf("parked %v polled %v, want two wakeups each", parked, polled)
	}
	for i := range parked {
		if parked[i] != polled[i] {
			t.Fatalf("wakeup %d: parked at cycle %d, polling at cycle %d", i, parked[i], polled[i])
		}
	}
}

// WaitOn, like Wait, suspends for at least one edge even when the
// predicate already holds, and evaluates it on that first edge without
// any notify.
func TestWaitOnAlwaysSuspendsOneEdge(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	var before, after uint64
	clk.Spawn("t", func(th *Thread) {
		before = th.Cycle()
		th.WaitOn(func() bool { return true }, &Event{})
		after = th.Cycle()
	})
	s.RunCycles(clk, 5)
	if after != before+1 {
		t.Fatalf("WaitOn(true) resumed at cycle %d after %d, want +1", after, before)
	}
}

// A thread whose event never notifies has its predicate evaluated once,
// on the first edge after it parks, and is never resumed — even though
// the predicate would hold later.
func TestWaitOnNeverNotified(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	evs := []*Event{{}}
	calls, resumed := 0, false
	clk.Spawn("t", func(th *Thread) {
		th.WaitOn(func() bool { calls++; return clk.Cycle() > 3 }, evs...)
		resumed = true
	})
	s.RunCycles(clk, 20)
	if calls != 1 || resumed {
		t.Fatalf("predicate evaluated %d times, resumed=%v; want 1 and false", calls, resumed)
	}
}

func TestWaitNMatchesRepeatedWait(t *testing.T) {
	run := func(park bool) uint64 {
		s := New()
		clk := s.AddClock("clk", 1000, 0)
		var woke uint64
		clk.Spawn("t", func(th *Thread) {
			if park {
				th.WaitN(7)
			} else {
				for i := 0; i < 7; i++ {
					th.Wait()
				}
			}
			woke = th.Cycle()
		})
		s.RunCycles(clk, 12)
		return woke
	}
	if a, b := run(true), run(false); a != b {
		t.Fatalf("WaitN woke at cycle %d, 7×Wait at %d", a, b)
	}
}

func TestWaitNZeroReturnsImmediately(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	var woke uint64
	clk.Spawn("t", func(th *Thread) {
		th.WaitN(0)
		woke = th.Cycle()
	})
	s.RunCycles(clk, 3)
	if woke != 1 {
		t.Fatalf("WaitN(0) woke at cycle %d, want 1 (no suspension)", woke)
	}
}

func TestWaitOnNilPanics(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	clk.Spawn("bad", func(th *Thread) {
		th.WaitOn(nil, &Event{})
	})
	s.RunCycles(clk, 2)
	if s.Err() == nil {
		t.Fatal("WaitOn(nil) did not surface an error")
	}
}

// A parked thread keeps its scheduling slot: threads registered after it
// still run in registration order on the edge it wakes.
func TestParkedThreadKeepsRegistrationOrder(t *testing.T) {
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	ready := false
	var ev Event
	evs := []*Event{&ev}
	clk.AtCommitNamed("ready", func() {
		ready = clk.Cycle() == 3
		ev.Notify()
	})
	var order []string
	clk.Spawn("first", func(th *Thread) {
		th.WaitOn(func() bool { return ready }, evs...)
		order = append(order, "first")
	})
	clk.Spawn("second", func(th *Thread) {
		for len(order) == 0 || order[len(order)-1] != "first" {
			th.Wait()
		}
		order = append(order, "second")
	})
	s.RunCycles(clk, 8)
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v, want [first second]", order)
	}
}

// Coincident edges across clock domains fire in name order regardless of
// registration order, including for thread phases and when one domain's
// threads are parked.
func TestCoincidentEdgesWithParkedThreads(t *testing.T) {
	run := func() []string {
		s := New()
		z := s.AddClock("z", 2000, 0)
		a := s.AddClock("a", 1000, 0)
		var order []string
		ready := false
		var ev Event
		evs := []*Event{&ev}
		a.AtCommitNamed("ready", func() {
			ready = a.Cycle() >= 3
			ev.Notify()
		})
		z.Spawn("zt", func(th *Thread) {
			for {
				order = append(order, "z")
				th.Wait()
			}
		})
		a.Spawn("at", func(th *Thread) {
			th.WaitOn(func() bool { return ready }, evs...)
			order = append(order, "a-woke")
			for {
				th.Wait()
			}
		})
		s.Run(6001)
		return order
	}
	first := run()
	woke := false
	for _, e := range first {
		woke = woke || e == "a-woke"
	}
	if !woke {
		t.Fatalf("parked thread never woke: %v", first)
	}
	for i := 0; i < 3; i++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("run %d: order %v, first run %v", i, got, first)
		}
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("run %d: order %v, first run %v", i, got, first)
			}
		}
	}
}

// A notify wakes a parked slot on the edge it is sent when the slot comes
// after the notifier in the walk, and on the next edge when it comes
// before, wherever the two slots sit among a clock's slots: within one
// 64-slot word of the ready set or across words. A slot registered
// mid-edge first runs on the next edge, even when it lands in the word
// being walked.
func TestNotifyOrderAcrossSlotWords(t *testing.T) {
	const slots = 130
	s := New()
	clk := s.AddClock("clk", 1000, 0)
	// At cycle at, slot from notifies slot to, which runs at cycle want.
	type send struct {
		at        uint64
		from, to  int
		want      uint64
		direction string
	}
	sends := []send{
		{5, 3, 40, 5, "ahead, same word"},
		{6, 10, 100, 6, "ahead, next word"},
		{7, 60, 129, 7, "ahead, two words on"},
		{8, 64, 125, 8, "ahead, from a word's first slot"},
		{9, 120, 5, 10, "behind, two words back"},
		{10, 70, 65, 11, "behind, same word"},
		{11, 127, 126, 12, "behind, adjacent slot"},
	}
	flags := make([]bool, slots)
	evs := make([][]*Event, slots)
	ran := make([][]uint64, slots)
	for i := range evs {
		evs[i] = []*Event{new(Event)}
	}
	// The senders, and the slot that registers a late one, run on every
	// edge; every other slot parks on its own event.
	senders := map[int]bool{2: true}
	for _, sd := range sends {
		senders[sd.from] = true
	}
	var lateRan []uint64
	for i := 0; i < slots; i++ {
		i := i
		ready := func() bool { return flags[i] }
		clk.Method(fmt.Sprintf("slot%d", i), func(th *Thread) {
			if flags[i] {
				flags[i] = false
				ran[i] = append(ran[i], th.Cycle())
			}
			for _, sd := range sends {
				if sd.from == i && sd.at == th.Cycle() {
					flags[sd.to] = true
					evs[sd.to][0].Notify()
				}
			}
			if i == 2 && th.Cycle() == 12 {
				// Slot 130 shares the walk's last word with slots 128
				// and 129.
				clk.Method("late", func(th *Thread) { lateRan = append(lateRan, th.Cycle()) })
			}
			if !senders[i] {
				th.WaitOn(ready, evs[i]...)
			}
		})
	}
	s.RunCycles(clk, 14)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	for _, sd := range sends {
		if got := ran[sd.to]; !slices.Equal(got, []uint64{sd.want}) {
			t.Errorf("%s: slot %d notified by slot %d at cycle %d ran at %v, want [%d]", sd.direction, sd.to, sd.from, sd.at, got, sd.want)
		}
		ran[sd.to] = nil
	}
	for i, got := range ran {
		if got != nil {
			t.Errorf("slot %d, never notified, ran at %v", i, got)
		}
	}
	if !slices.Equal(lateRan, []uint64{13, 14}) {
		t.Errorf("slot registered at cycle 12 ran at %v, want [13 14]", lateRan)
	}
}
