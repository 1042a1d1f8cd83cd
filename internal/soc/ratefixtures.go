package soc

import (
	"repro/internal/connections"
	"repro/internal/noc"
	"repro/internal/sim"
)

// buildBadRate wires two rate hazards. First, an SDF cycle whose balance
// equations are inconsistent (RATE-1): actor a pushes two tokens per
// firing to b, but the return channel claims one-for-one, so no periodic
// schedule exists. Second, a flooded channel (RATE-2): a full-rate
// producer feeds a consumer declared to fire only every other cycle.
func buildBadRate(cfg Config) (*SoC, func(*SoC) error) {
	s := New(cfg, nil)
	clk := s.Clks[0]
	d := clk.Sim().Design()

	d.DeclareActor("fixture/a", sim.ActorSDF, clk, sim.Rat{})
	d.DeclareActor("fixture/b", sim.ActorSDF, clk, sim.Rat{})
	aOut := connections.NewOut[noc.Flit]().Owned(clk, "fixture/a", "out").Rated(2, 1)
	aIn := connections.NewIn[noc.Flit]().Owned(clk, "fixture/a", "in").Rated(1, 1)
	bOut := connections.NewOut[noc.Flit]().Owned(clk, "fixture/b", "out").Rated(1, 1)
	bIn := connections.NewIn[noc.Flit]().Owned(clk, "fixture/b", "in").Rated(1, 1)
	connections.Buffer(clk, "fixture/ab", 2, aOut, bIn)
	connections.Buffer(clk, "fixture/ba", 2, bOut, aIn)

	d.DeclareActor("fixture/fast", sim.ActorSDF, clk, sim.NewRat(1, 1))
	d.DeclareActor("fixture/slow", sim.ActorSDF, clk, sim.NewRat(1, 2))
	fOut := connections.NewOut[noc.Flit]().Owned(clk, "fixture/fast", "out").Rated(1, 1)
	sIn := connections.NewIn[noc.Flit]().Owned(clk, "fixture/slow", "in").Rated(1, 1)
	connections.Buffer(clk, "fixture/fs", 2, fOut, sIn)
	return s, neverRun
}

// buildBadBuf wires two buffer-sizing hazards: a producer that bursts
// eight tokens per firing into a two-slot FIFO (RATE-3, the buffer can
// never absorb one firing), and a one-for-one channel behind a 64-slot
// FIFO (RATE-4, capacity far beyond the minimal depth of 1).
func buildBadBuf(cfg Config) (*SoC, func(*SoC) error) {
	s := New(cfg, nil)
	clk := s.Clks[0]
	burst := connections.NewOut[noc.Flit]().Owned(clk, "fixture/burst", "out").Rated(8, 1)
	sink := connections.NewIn[noc.Flit]().Owned(clk, "fixture/sink", "in")
	connections.Buffer(clk, "fixture/narrow", 2, burst, sink)

	wOut := connections.NewOut[noc.Flit]().Owned(clk, "fixture/wsrc", "out").Rated(1, 1)
	wIn := connections.NewIn[noc.Flit]().Owned(clk, "fixture/wdst", "in").Rated(1, 1)
	connections.Buffer(clk, "fixture/wide", 64, wOut, wIn)
	return s, neverRun
}
