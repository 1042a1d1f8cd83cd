package verif_test

// The model-checking gate: a proof on a closed model skips the dynamic
// stall-hunt outright, a violation seeds it deterministically, and
// anything the checker cannot close falls through to a normal hunt.

import (
	"testing"

	"repro/internal/connections"
	"repro/internal/mc"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/verif"
)

type flit = noc.Flit

// buildClosedChain declares a 1:1 pipeline src -> mid -> sink with every
// endpoint declared: a closed model the checker proves outright.
func buildClosedChain() *sim.Simulator {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	d := s.Design()
	d.DeclareActor("tb/src", sim.ActorSDF, clk, sim.Rat{})
	d.DeclareActor("tb/mid", sim.ActorSDF, clk, sim.Rat{})
	d.DeclareActor("tb/sink", sim.ActorSDF, clk, sim.Rat{})
	srcOut := connections.NewOut[flit]().Owned(clk, "tb/src", "out").Rated(1, 1)
	midIn := connections.NewIn[flit]().Owned(clk, "tb/mid", "in").Rated(1, 1)
	midOut := connections.NewOut[flit]().Owned(clk, "tb/mid", "out").Rated(1, 1)
	sinkIn := connections.NewIn[flit]().Owned(clk, "tb/sink", "in").Rated(1, 1)
	connections.Buffer(clk, "tb/q1", 2, srcOut, midIn)
	connections.Buffer(clk, "tb/q2", 2, midOut, sinkIn)
	return s
}

// buildTokenRing declares the zero-token ring from the mcdeadlock
// fixture, minus the surrounding SoC: wedged from the initial state.
func buildTokenRing() *sim.Simulator {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	d := s.Design()
	d.DeclareActor("tb/a", sim.ActorSDF, clk, sim.Rat{})
	d.DeclareActor("tb/b", sim.ActorSDF, clk, sim.Rat{})
	aOut := connections.NewOut[flit]().Owned(clk, "tb/a", "out").Rated(1, 1)
	aIn := connections.NewIn[flit]().Owned(clk, "tb/a", "in").Rated(1, 1)
	bOut := connections.NewOut[flit]().Owned(clk, "tb/b", "out").Rated(1, 1)
	bIn := connections.NewIn[flit]().Owned(clk, "tb/b", "in").Rated(1, 1)
	connections.Buffer(clk, "tb/ab", 1, aOut, bIn)
	connections.Buffer(clk, "tb/ba", 1, bOut, aIn)
	return s
}

// buildOpenModel wires one anonymous channel: the checker must abstract
// both endpoints into environment actors, so nothing it proves covers
// the real design and the hunt must still run.
func buildOpenModel() *sim.Simulator {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out := connections.NewOut[flit]()
	in := connections.NewIn[flit]()
	connections.Buffer(clk, "tb/anon", 2, out, in)
	return s
}

func TestProvedClosedModelSkipsHunt(t *testing.T) {
	hunted := false
	r, err := verif.ModelCheckThenRun(buildClosedChain(), mc.Options{}, func([]int64) error {
		hunted = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Proved() {
		t.Fatalf("closed chain not proved: deadlock=%s equivalence=%s", r.Deadlock.Verdict, r.Equivalence.Verdict)
	}
	if hunted {
		t.Fatal("hunt ran despite a full proof on a closed model")
	}
}

func TestViolationSeedsHuntDeterministically(t *testing.T) {
	run := func() (seeds []int64, err error) {
		_, err = verif.ModelCheckThenRun(buildTokenRing(), mc.Options{}, func(s []int64) error {
			seeds = s
			return nil
		})
		return seeds, err
	}
	s1, err1 := run()
	if err1 == nil {
		t.Fatal("wedged ring produced no error")
	}
	if len(s1) == 0 {
		t.Fatal("no repro seeds derived from the counterexample")
	}
	s2, _ := run()
	if len(s1) != len(s2) {
		t.Fatalf("seed count unstable: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("seed %d unstable: %d vs %d", i, s1[i], s2[i])
		}
		if s1[i] <= 0 {
			t.Fatalf("seed %d not positive: %d", i, s1[i])
		}
	}
}

func TestOpenModelAlwaysHunts(t *testing.T) {
	hunted := false
	var got []int64
	r, err := verif.ModelCheckThenRun(buildOpenModel(), mc.Options{}, func(s []int64) error {
		hunted = true
		got = s
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.EnvEndpoints == 0 {
		t.Fatal("anonymous channel did not produce env endpoints")
	}
	if !hunted {
		t.Fatal("open model skipped the hunt")
	}
	if got != nil {
		t.Fatalf("open model without violations passed seeds %v", got)
	}
}

// The gate composes with the shipped fixtures: the seeded SoC-level
// deadlock both errors and seeds the hunt.
func TestFixtureDeadlockSeedsHunt(t *testing.T) {
	for _, tc := range soc.Fixtures() {
		if tc.Name != "mcdeadlock" {
			continue
		}
		s, _ := tc.Build(soc.DefaultConfig())
		var seeds []int64
		_, err := verif.ModelCheckThenRun(s.Sim, mc.Options{}, func(sd []int64) error {
			seeds = sd
			return nil
		})
		if err == nil || len(seeds) == 0 {
			t.Fatalf("fixture did not gate: err=%v seeds=%v", err, seeds)
		}
		return
	}
	t.Fatal("mcdeadlock fixture missing")
}
