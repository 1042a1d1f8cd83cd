package sim

import "testing"

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
// clock and on two clocks with coincident edges sharing one variable.
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
}
