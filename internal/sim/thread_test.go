package sim

import (
	"fmt"
	"testing"
)

// hbLoad attaches to c a thread and drive/commit hooks that all read and
// write *x, a plain non-atomic variable. The kernel alone orders these
// accesses, so under -race any thread switch that fails to order memory
// like a channel send/receive pair is reported as a data race.
func hbLoad(c *Clock, x *uint64) {
	c.Spawn(c.Name()+"/hb", func(th *Thread) {
		for i := 0; ; i++ {
			*x = *x*3 + 1
			switch {
			case i%7 == 6:
				th.WaitFor(func() bool { return *x%2 == 0 })
			case i%5 == 4:
				th.WaitN(2)
			default:
				th.Wait()
			}
		}
	})
	c.AtDrive(func() { *x += c.Cycle() })
	c.AtCommit(func() { *x ^= *x >> 7 })
}

// TestThreadSwitchOrdersMemory drives hbLoad over many edges on one
// clock, on two clocks with coincident edges sharing one variable, and
// under the partition engine, where a window's shard goroutine resumes
// coroutines that an earlier window's goroutine suspended.
func TestThreadSwitchOrdersMemory(t *testing.T) {
	const horizon = 40_000

	t.Run("one clock", func(t *testing.T) {
		s := New()
		var x uint64
		hbLoad(s.AddClock("clk", 10, 0), &x)
		s.Run(horizon)
		if x == 0 {
			t.Fatal("variable never written")
		}
	})

	t.Run("coincident clocks", func(t *testing.T) {
		s := New()
		var x uint64
		fast, slow := s.AddClock("fast", 10, 0), s.AddClock("slow", 20, 0)
		hbLoad(fast, &x)
		hbLoad(slow, &x)
		s.Run(horizon)
		if x == 0 || slow.Cycle() == 0 || fast.Cycle() != 2*slow.Cycle() {
			t.Fatalf("x=%d fast=%d slow=%d: edges did not coincide as built", x, fast.Cycle(), slow.Cycle())
		}
	})

	t.Run("partitioned", func(t *testing.T) {
		// Two shards of two clocks; each shard's clocks share one
		// variable, so accesses never cross shard goroutines.
		build := func() (*Simulator, []*Clock, []uint64) {
			s := New()
			var clocks []*Clock
			for i := 0; i < 4; i++ {
				clocks = append(clocks, s.AddClock(fmt.Sprintf("c%d", i), Time(10+3*i), Time(i)))
			}
			x := make([]uint64, 2)
			for i, c := range clocks {
				hbLoad(c, &x[i/2])
			}
			return s, clocks, x
		}
		ref, _, want := build()
		ref.Run(horizon)

		s, clocks, got := build()
		e, err := NewEngine(s, [][]*Clock{clocks[:2], clocks[2:]}, [][2]*Clock{{clocks[1], clocks[2]}})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []Time{horizon / 4, horizon / 2, 3 * horizon / 4, horizon} {
			e.Run(h)
		}
		e.Close()
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("partitioned run left %v, sequential %v", got, want)
		}
	})
}
