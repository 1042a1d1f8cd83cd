package connections

import (
	"testing"

	"repro/internal/sim"
)

// Stall injection must be a pure function of (channel name, seed): two
// runs with the same WithStall configuration produce bit-identical
// channel statistics in every channel model. This is what makes a bug
// found by stall-hunting reproducible from its seed (§2.3), and it also
// pins down that the scheduler's idle-thread parking does not perturb
// the injection RNG stream.
func TestStallInjectionReproducible(t *testing.T) {
	run := func(mode Mode) Stats {
		s := sim.New()
		clk := s.AddClock("clk", 1000, 0)
		out, in, ch := Connect[int](clk, "repro_ch", KindBuffer, 3,
			WithMode(mode), WithStall(0.35, 99))
		const n = 80
		clk.Spawn("p", func(th *sim.Thread) {
			for i := 0; i < n; i++ {
				out.Push(th, i)
				th.Wait()
			}
		})
		clk.Spawn("c", func(th *sim.Thread) {
			for i := 0; i < n; i++ {
				if got := in.Pop(th); got != i {
					t.Errorf("message %d = %d under %v", i, got, mode)
				}
				th.Wait()
			}
			th.Sim().Stop()
		})
		s.Run(sim.Infinity - 1)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		return ch.Stats()
	}
	for _, mode := range []Mode{ModeSimAccurate, ModeSignalAccurate, ModeRTLCosim} {
		t.Run(mode.String(), func(t *testing.T) {
			a, b := run(mode), run(mode)
			if a != b {
				t.Fatalf("same seed, different stats:\n  run 1: %+v\n  run 2: %+v", a, b)
			}
			if a.StallCycles == 0 {
				t.Fatal("stall injection never fired — test is vacuous")
			}
		})
	}
}

// Different seeds must produce different stall streams (or the seed is
// being ignored).
func TestStallSeedChangesStream(t *testing.T) {
	run := func(seed int64) Stats {
		s := sim.New()
		clk := s.AddClock("clk", 1000, 0)
		out, in, ch := Connect[int](clk, "seed_ch", KindBuffer, 3, WithStall(0.35, seed))
		const n = 60
		clk.Spawn("p", func(th *sim.Thread) {
			for i := 0; i < n; i++ {
				out.Push(th, i)
				th.Wait()
			}
		})
		clk.Spawn("c", func(th *sim.Thread) {
			for i := 0; i < n; i++ {
				in.Pop(th)
				th.Wait()
			}
			th.Sim().Stop()
		})
		s.Run(sim.Infinity - 1)
		return ch.Stats()
	}
	if run(1) == run(2) {
		t.Fatal("seeds 1 and 2 produced identical channel stats")
	}
}
