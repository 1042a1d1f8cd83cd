package soc

import (
	"repro/internal/connections"
	"repro/internal/gals"
	"repro/internal/noc"
	"repro/internal/sim"
)

// buildMCDeadlock wires a token ring with no initial tokens into the
// full SoC: two single-slot buffered channels a -> b -> a where each
// actor needs an input token before producing. lint's static pass can
// only warn (DLK-2: the cycle has buffering, so zero-slack is a maybe),
// but the model checker proves the ring is wedged in its very first
// state: a circular wait with no tokens to break it.
func buildMCDeadlock(cfg Config) (*SoC, func(*SoC) error) {
	s := New(cfg, nil)
	clk := s.Clks[0]
	d := clk.Sim().Design()

	d.DeclareActor("fixture/a", sim.ActorSDF, clk, sim.Rat{})
	d.DeclareActor("fixture/b", sim.ActorSDF, clk, sim.Rat{})
	aOut := connections.NewOut[noc.Flit]().Owned(clk, "fixture/a", "out").Rated(1, 1)
	aIn := connections.NewIn[noc.Flit]().Owned(clk, "fixture/a", "in").Rated(1, 1)
	bOut := connections.NewOut[noc.Flit]().Owned(clk, "fixture/b", "out").Rated(1, 1)
	bIn := connections.NewIn[noc.Flit]().Owned(clk, "fixture/b", "in").Rated(1, 1)
	connections.Buffer(clk, "fixture/ab", 1, aOut, bIn)
	connections.Buffer(clk, "fixture/ba", 1, bOut, aIn)
	return s, neverRun
}

// buildMCBufEqv wires an undersized-buffer equivalence violation into
// the full SoC: a packer that accumulates four tokens and bursts all
// four into a two-slot channel. Under sim-accurate (unbounded-buffer)
// semantics the packer fires as soon as its input holds four tokens;
// under signal-accurate back-pressure it can never fire — the burst
// exceeds the channel's total storage — so the two executions diverge
// on the token stream once the accumulator fills (depth 4).
func buildMCBufEqv(cfg Config) (*SoC, func(*SoC) error) {
	s := New(cfg, nil)
	clk := s.Clks[0]
	d := clk.Sim().Design()

	d.DeclareActor("fixture/src", sim.ActorSDF, clk, sim.Rat{})
	d.DeclareActor("fixture/pack", sim.ActorSDF, clk, sim.Rat{})
	d.DeclareActor("fixture/sink", sim.ActorSDF, clk, sim.Rat{})
	srcOut := connections.NewOut[noc.Flit]().Owned(clk, "fixture/src", "out").Rated(1, 1)
	packIn := connections.NewIn[noc.Flit]().Owned(clk, "fixture/pack", "in").Rated(4, 1)
	packOut := connections.NewOut[noc.Flit]().Owned(clk, "fixture/pack", "out").Rated(4, 1)
	sinkIn := connections.NewIn[noc.Flit]().Owned(clk, "fixture/sink", "in").Rated(1, 1)
	connections.Buffer(clk, "fixture/acc", 4, srcOut, packIn)
	connections.Buffer(clk, "fixture/qburst", 2, packOut, sinkIn)
	return s, neverRun
}

// buildMCSerdes is the rated serializer chain from the verif rate
// bridge, reduced to its declared skeleton: source -> 1:3 serializer ->
// 3:1 deserializer -> sink over buffered channels sized at ratecheck's
// RATE-3 minima. Every endpoint is declared, so the model is closed and
// the checker can exhaust its reachable states.
func buildMCSerdes(cfg Config) (*SoC, func(*SoC) error) {
	s := &SoC{Sim: sim.New(), Cfg: cfg}
	clk := s.Sim.AddClock("clk", clockPS, 0)
	s.Clks = []*sim.Clock{clk}
	d := s.Sim.Design()

	d.DeclareActor("tb/src", sim.ActorSDF, clk, sim.Rat{})
	d.DeclareActor("tb/ser", sim.ActorSDF, clk, sim.Rat{})
	d.DeclareActor("tb/des", sim.ActorSDF, clk, sim.Rat{})
	d.DeclareActor("tb/sink", sim.ActorSDF, clk, sim.Rat{})
	srcOut := connections.NewOut[noc.Flit]().Owned(clk, "tb/src", "out").Rated(1, 1)
	serIn := connections.NewIn[noc.Flit]().Owned(clk, "tb/ser", "in").Rated(1, 1)
	serOut := connections.NewOut[noc.Flit]().Owned(clk, "tb/ser", "out").Rated(3, 1)
	desIn := connections.NewIn[noc.Flit]().Owned(clk, "tb/des", "in").Rated(3, 1)
	desOut := connections.NewOut[noc.Flit]().Owned(clk, "tb/des", "out").Rated(1, 1)
	sinkIn := connections.NewIn[noc.Flit]().Owned(clk, "tb/sink", "in").Rated(1, 1)
	connections.Buffer(clk, "tb/q_head", 2, srcOut, serIn)
	connections.Buffer(clk, "tb/q_link", 3, serOut, desIn)
	connections.Buffer(clk, "tb/q_tail", 2, desOut, sinkIn)
	return s, neverRun
}

// buildMCGals is a minimal GALS clock-domain crossing: two drifting
// clocks joined by one pausible bisync FIFO, the structure every
// partition boundary of the GALS SoC uses. The surrounding domains are
// the crossing's environment, so the model is the FIFO itself —
// occupancy plus two synchronizer stages — and the checker proves the
// crossing can neither deadlock nor drop the token-stream equivalence.
func buildMCGals(cfg Config) (*SoC, func(*SoC) error) {
	s := &SoC{Sim: sim.New(), Cfg: cfg}
	tx := s.Sim.AddClock("tx", clockPS, 0)
	rx := s.Sim.AddClock("rx", clockPS+7, 13)
	s.Clks = []*sim.Clock{tx, rx}
	gals.NewPausibleBisyncFIFO[noc.Flit](s.Sim, "tb/cross", tx, rx, 4, 40)
	return s, neverRun
}
