package sim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestSleepingClocksTranscriptPinned pins what three drifting clocks show
// while two of them sleep: a method on clock m reads the Cycle, Now,
// NextEdge and Committed of clocks a and z (named before and after m)
// on every edge, and at chosen edges notifies a parked slot, touches a
// commit hook, pauses, retunes, registers a late process and stops the
// kernel in the middle of a step ahead of a coincident later-named
// edge. Periods and phases are coprime, so a, m and z meet in pairs at
// coincident edges in both name orders. The run ends with every slot
// asleep and RunCycles, Run and Step on the sleeping clocks. The
// transcript's FNV-64a hash is pinned, so the kernel may change how it
// schedules idle clocks but not what any clock shows.
func TestSleepingClocksTranscriptPinned(t *testing.T) {
	const want = "806501075ff8b27a"
	var buf bytes.Buffer
	s := New()
	m := s.AddClock("m", 300, 0)
	z := s.AddClock("z", 700, 200)
	a := s.AddClock("a", 500, 100)
	clocks := []*Clock{a, m, z}
	show := func(tag string) {
		fmt.Fprintf(&buf, "%s now=%d total=%d", tag, s.Now(), s.TotalEdges())
		for _, c := range clocks {
			fmt.Fprintf(&buf, " %s[c=%d n=%d next=%d k=%d]", c.Name(), c.Cycle(), c.Now(), c.NextEdge(), c.Committed())
		}
		buf.WriteByte('\n')
	}

	// a and z each run one parked thread that wakes on its event, logs,
	// counts down a few edges and parks again; z also has a commit hook
	// that only a touch from m runs.
	var aEv, zEv Event
	aWake, zWake := 0, 0
	sleeper := func(c *Clock, ev *Event, wakes *int) {
		evs := []*Event{ev}
		c.Spawn(c.Name()+"/sleeper", func(th *Thread) {
			for seen := 0; ; seen++ {
				th.WaitOn(func() bool { return *wakes > seen }, evs...)
				fmt.Fprintf(&buf, "%s woke at c=%d t=%d\n", c.Name(), th.Cycle(), c.Now())
				th.WaitN(2)
				fmt.Fprintf(&buf, "%s counted down at c=%d\n", c.Name(), th.Cycle())
			}
		})
	}
	sleeper(a, &aEv, &aWake)
	sleeper(z, &zEv, &zWake)
	zHook := z.AtCommitOnTouch("z/hook", func() bool {
		fmt.Fprintf(&buf, "z hook at c=%d k=%d\n", z.Cycle(), z.Committed())
		return false
	})

	stopped := false
	m.Method("m/drive", func(th *Thread) {
		k := th.Cycle()
		show(fmt.Sprintf("m%d", k))
		switch {
		case k == 3:
			// t=600: a's edge at 600 fired before m's; a wakes at 1100.
			aWake++
			aEv.Notify()
		case k == 4:
			// t=900: z is due at 900 after m and wakes into this step.
			zWake++
			zEv.Notify()
		case k == 6:
			z.Pause(1700)
		case k == 8:
			// t=2100: coincident with a, which already fired.
			a.SetPeriod(400)
		case k == 10:
			zHook.Touch()
		case k == 12:
			a.Spawn("a/late", func(th *Thread) {
				fmt.Fprintf(&buf, "a/late ran at c=%d\n", th.Cycle())
			})
		case k > 14 && !stopped && z.NextEdge() == s.Now():
			// z is due at this instant, after m: Stop leaves its edge
			// unfired.
			stopped = true
			s.Stop()
		case k == 40:
			aWake++
			aEv.Notify()
			zWake++
			zEv.Notify()
		case k >= 45:
			th.WaitOn(func() bool { return false })
		}
	})

	s.RunCycles(m, 30)
	if !stopped {
		t.Fatal("m never found z due at its own instant")
	}
	show("stopped")
	s.stopped.Store(false)
	s.RunCycles(m, 30)
	show("m-idle")
	s.RunCycles(z, 7)
	show("z+7")
	s.RunCycles(a, 3)
	show("a+3")
	s.RunCycles(m, 5)
	show("m+5")
	s.Run(s.Now() + 2950)
	show("run")
	s.Step()
	show("step")
	fmt.Fprintf(&buf, "skipped a=%d m=%d z=%d\n", a.skippedEdges(), m.skippedEdges(), z.skippedEdges())
	for _, c := range clocks {
		if c.skippedEdges() == 0 {
			t.Errorf("clock %s never slept", c.Name())
		}
	}

	h := fnv.New64a()
	h.Write(buf.Bytes())
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("transcript hash %s, want %s; transcript:\n%s", got, want, buf.String())
	}
}
