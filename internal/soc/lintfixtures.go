package soc

import (
	"repro/internal/connections"
	"repro/internal/noc"
)

// buildBadCDC wires an ordinary single-clock buffer between two different
// GALS partitions — the unsynchronized clock-domain crossing CDC-1 exists
// to catch. The legitimate path between those partitions goes through a
// pausible bisynchronous FIFO; this one skips it.
func buildBadCDC(cfg Config) (*SoC, func(*SoC) error) {
	cfg.GALS = true
	s := New(cfg, nil)
	prod := connections.NewOut[noc.Flit]().Owned(s.Clks[0], "fixture/prod", "out")
	cons := connections.NewIn[noc.Flit]().Owned(s.Clks[1], "fixture/cons", "in")
	connections.Buffer(s.Clks[0], "fixture/xclk", 2, prod, cons)
	return s, neverRun
}

// buildBadLoop closes a cycle of zero-latency combinational channels
// between two components — the classic LI-channel deadlock DLK-1 flags:
// each endpoint's ready depends combinationally on the other's.
func buildBadLoop(cfg Config) (*SoC, func(*SoC) error) {
	s := New(cfg, nil)
	clk := s.Clks[0]
	aOut := connections.NewOut[noc.Flit]().Owned(clk, "fixture/a", "out")
	aIn := connections.NewIn[noc.Flit]().Owned(clk, "fixture/a", "in")
	bOut := connections.NewOut[noc.Flit]().Owned(clk, "fixture/b", "out")
	bIn := connections.NewIn[noc.Flit]().Owned(clk, "fixture/b", "in")
	connections.Combinational(clk, "fixture/ab", aOut, bIn)
	connections.Combinational(clk, "fixture/ba", bOut, aIn)
	return s, neverRun
}

// buildBadPort declares ports that violate the connectivity rules: one
// owned input that is never bound to any channel (CON-1), and one owned
// output whose channel dangles into an anonymous, unterminated consumer
// (CON-2).
func buildBadPort(cfg Config) (*SoC, func(*SoC) error) {
	s := New(cfg, nil)
	clk := s.Clks[0]
	connections.NewIn[noc.Flit]().Owned(clk, "fixture/widow", "in")
	dangler := connections.NewOut[noc.Flit]().Owned(clk, "fixture/dangler", "out")
	connections.Buffer(clk, "fixture/dangling", 2, dangler, connections.NewIn[noc.Flit]())
	return s, neverRun
}
