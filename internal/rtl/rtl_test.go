package rtl

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/trace"
)

// mustSim builds the compiled Simulator, failing the test on
// construction errors.
func mustSim(t *testing.T, n *Netlist) *Simulator {
	t.Helper()
	s, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustRef builds the reference interpreter, failing the test on
// construction errors.
func mustRef(t *testing.T, n *Netlist) *refSim {
	t.Helper()
	s, err := newRefSim(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// evaluator is the contract the compiled Simulator and the reference
// interpreter share.
type evaluator interface {
	InputPorts() []Port
	AttachVCD(*trace.VCD)
	Step(map[string]uint64) map[string]uint64
	StepWords(in, out []uint64)
	counts() (cycles, toggles uint64)
}

type compiledSim struct{ *Simulator }

func (s compiledSim) counts() (uint64, uint64) { return s.Cycles, s.Toggles }
func (s *refSim) counts() (uint64, uint64)     { return s.Cycles, s.Toggles }

// backend builds one evaluator for a netlist: interp or compiled.
type backend func(*testing.T, *Netlist) evaluator

func interp(t *testing.T, n *Netlist) evaluator   { return mustRef(t, n) }
func compiled(t *testing.T, n *Netlist) evaluator { return compiledSim{mustSim(t, n)} }

// forBothBackends runs a subtest against the reference interpreter and
// the compiled Simulator: both must satisfy the same contract.
func forBothBackends(t *testing.T, f func(t *testing.T, build backend)) {
	t.Run("interp", func(t *testing.T) { f(t, interp) })
	t.Run("compiled", func(t *testing.T) { f(t, compiled) })
}

func TestAttachVCD(t *testing.T) {
	n := &Netlist{Name: "vcd"}
	a := n.NewNet()
	n.Inputs = append(n.Inputs, PortBit{Name: "a", Bit: 0, Net: a})
	n.Outputs = append(n.Outputs, PortBit{Name: "y", Bit: 0, Net: n.AddCell(INV, a)})
	sim := mustSim(t, n)
	var sb strings.Builder
	v := trace.NewVCD(&sb)
	sim.AttachVCD(v)
	sim.Step(map[string]uint64{"a": 0})
	sim.Step(map[string]uint64{"a": 1})
	sim.Step(map[string]uint64{"a": 1})
	out := sb.String()
	for _, want := range []string{"$var wire 1", "#0", "#1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "#2") {
		t.Fatalf("unchanged cycle produced events:\n%s", out)
	}
}

func TestCellEvaluation(t *testing.T) {
	forBothBackends(t, testCellEvaluation)
}

func testCellEvaluation(t *testing.T, build backend) {
	n := &Netlist{Name: "cells"}
	a := n.NewNet()
	b := n.NewNet()
	n.Inputs = append(n.Inputs,
		PortBit{Name: "a", Bit: 0, Net: a},
		PortBit{Name: "b", Bit: 0, Net: b})
	outs := map[string]Net{
		"inv":  n.AddCell(INV, a),
		"buf":  n.AddCell(BUF, a),
		"nand": n.AddCell(NAND2, a, b),
		"nor":  n.AddCell(NOR2, a, b),
		"and":  n.AddCell(AND2, a, b),
		"or":   n.AddCell(OR2, a, b),
		"xor":  n.AddCell(XOR2, a, b),
		"xnor": n.AddCell(XNOR2, a, b),
		"mux":  n.AddCell(MUX2, a, b, n.AddCell(TIE1)),
		"tie0": n.AddCell(TIE0),
		"tie1": n.AddCell(TIE1),
	}
	for name, net := range outs {
		n.Outputs = append(n.Outputs, PortBit{Name: name, Bit: 0, Net: net})
	}
	sim := build(t, n)
	for av := uint64(0); av < 2; av++ {
		for bv := uint64(0); bv < 2; bv++ {
			got := sim.Step(map[string]uint64{"a": av, "b": bv})
			want := map[string]uint64{
				"inv":  1 ^ av,
				"buf":  av,
				"nand": 1 ^ (av & bv),
				"nor":  1 ^ (av | bv),
				"and":  av & bv,
				"or":   av | bv,
				"xor":  av ^ bv,
				"xnor": 1 ^ av ^ bv,
				"tie0": 0,
				"tie1": 1,
			}
			if av == 1 {
				want["mux"] = bv
			} else {
				want["mux"] = 1 // TIE1 leg
			}
			for name, w := range want {
				if got[name] != w {
					t.Fatalf("a=%d b=%d %s = %d, want %d", av, bv, name, got[name], w)
				}
			}
		}
	}
}

func TestDFFOneCycleDelay(t *testing.T) {
	forBothBackends(t, testDFFOneCycleDelay)
}

func testDFFOneCycleDelay(t *testing.T, build backend) {
	n := &Netlist{Name: "dff"}
	d := n.NewNet()
	n.Inputs = append(n.Inputs, PortBit{Name: "d", Bit: 0, Net: d})
	q := n.AddCell(DFF, d)
	q2 := n.AddCell(DFF, q)
	n.Outputs = append(n.Outputs,
		PortBit{Name: "q", Bit: 0, Net: q},
		PortBit{Name: "q2", Bit: 0, Net: q2})
	sim := build(t, n)
	seq := []uint64{1, 0, 1, 1, 0}
	var qs, q2s []uint64
	for _, v := range seq {
		out := sim.Step(map[string]uint64{"d": v})
		qs = append(qs, out["q"])
		q2s = append(q2s, out["q2"])
	}
	// q lags d by one cycle, q2 by two.
	for i := 1; i < len(seq); i++ {
		if qs[i] != seq[i-1] {
			t.Fatalf("q[%d] = %d, want %d", i, qs[i], seq[i-1])
		}
	}
	for i := 2; i < len(seq); i++ {
		if q2s[i] != seq[i-2] {
			t.Fatalf("q2[%d] = %d, want %d", i, q2s[i], seq[i-2])
		}
	}
}

func TestLevelizeOrdersDependencies(t *testing.T) {
	n := &Netlist{Name: "order"}
	a := n.NewNet()
	n.Inputs = append(n.Inputs, PortBit{Name: "a", Bit: 0, Net: a})
	x := n.AddCell(INV, a)
	y := n.AddCell(INV, x)
	z := n.AddCell(AND2, x, y)
	_ = z
	order := n.Levelize()
	pos := map[Net]int{}
	for i, c := range order {
		pos[c.Out] = i
	}
	if !(pos[x] < pos[y] && pos[y] < pos[z]) {
		t.Fatalf("levelize order wrong: %v", pos)
	}
}

func TestLevelizeDetectsLoop(t *testing.T) {
	n := &Netlist{Name: "loop"}
	// Manually create a cycle: cell A's input is cell B's output and
	// vice versa.
	aOut := n.NewNet()
	bOut := n.NewNet()
	n.Cells = append(n.Cells,
		Cell{Kind: INV, Out: aOut, In: []Net{bOut}},
		Cell{Kind: INV, Out: bOut, In: []Net{aOut}})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("combinational loop not detected")
		}
		if _, ok := r.(*LoopError); !ok {
			t.Fatalf("panic value = %v (%T), want *LoopError", r, r)
		}
	}()
	n.Levelize()
}

func TestLoopErrorNamesCyclePath(t *testing.T) {
	// a 3-cell cycle through an AND2: the diagnostic must walk the cycle
	// by cell name and close it by repeating the first entry.
	n := &Netlist{Name: "looppath"}
	x := n.NewNet()
	n.Inputs = append(n.Inputs, PortBit{Name: "x", Bit: 0, Net: x})
	aOut, bOut, cOut := n.NewNet(), n.NewNet(), n.NewNet()
	n.Cells = append(n.Cells,
		Cell{Kind: AND2, Out: aOut, In: []Net{x, cOut}},
		Cell{Kind: INV, Out: bOut, In: []Net{aOut}},
		Cell{Kind: BUF, Out: cOut, In: []Net{bOut}})
	_, err := n.LevelizeChecked()
	var le *LoopError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LoopError", err)
	}
	if le.Module != "looppath" || len(le.Path) != 4 || le.Path[0] != le.Path[len(le.Path)-1] {
		t.Fatalf("path = %v", le.Path)
	}
	msg := err.Error()
	for _, want := range []string{"AND2#0(n1)", "INV#1(n2)", "BUF#2(n3)", " -> "} {
		if !strings.Contains(msg, want) {
			t.Fatalf("diagnostic %q missing %q", msg, want)
		}
	}
	// NewSimulator surfaces the same error instead of panicking.
	if _, err := NewSimulator(n); !errors.As(err, &le) {
		t.Fatalf("NewSimulator err = %v", err)
	}
}

func TestLevelizeDeepChainIterative(t *testing.T) {
	// A 200k-deep inverter chain would overflow the stack under the old
	// recursive levelizer; the worklist version must handle it.
	n := &Netlist{Name: "deep"}
	cur := n.NewNet()
	n.Inputs = append(n.Inputs, PortBit{Name: "a", Bit: 0, Net: cur})
	const depth = 200000
	for i := 0; i < depth; i++ {
		cur = n.AddCell(INV, cur)
	}
	n.Outputs = append(n.Outputs, PortBit{Name: "y", Bit: 0, Net: cur})
	order := n.Levelize()
	if len(order) != depth {
		t.Fatalf("order len = %d", len(order))
	}
	sim := mustSim(t, n)
	out := sim.Step(map[string]uint64{"a": 1})
	if out["y"] != 1 { // even number of inversions
		t.Fatalf("y = %d", out["y"])
	}
}

func TestAddCellArityPanics(t *testing.T) {
	n := &Netlist{Name: "bad"}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong arity")
		}
	}()
	n.AddCell(AND2, n.NewNet())
}

func TestVerilogStructure(t *testing.T) {
	n := &Netlist{Name: "vtest"}
	a := n.NewNet()
	n.Inputs = append(n.Inputs, PortBit{Name: "a", Bit: 0, Net: a})
	q := n.AddCell(DFF, n.AddCell(INV, a))
	n.Outputs = append(n.Outputs, PortBit{Name: "q", Bit: 0, Net: q})
	v := n.Verilog()
	for _, want := range []string{"module vtest(clk, a, q)", "not g", "reg [0:0] r;", "always @(posedge clk)", "endmodule"} {
		if !strings.Contains(v, want) {
			t.Fatalf("verilog missing %q:\n%s", want, v)
		}
	}
}

func TestVerilogTestbench(t *testing.T) {
	n := &Netlist{Name: "tbt"}
	a := n.NewNet()
	n.Inputs = append(n.Inputs, PortBit{Name: "a", Bit: 0, Net: a})
	n.Outputs = append(n.Outputs, PortBit{Name: "y", Bit: 0, Net: n.AddCell(INV, a)})
	vectors := []map[string]uint64{{"a": 0}, {"a": 1}}
	expected := []map[string]uint64{{"y": 1}, {"y": 0}}
	tb := VerilogTestbench(n, vectors, expected, 0)
	for _, want := range []string{
		"module tbt_tb;", "tbt dut(.clk(clk), .a(a), .y(y));",
		"a = 1'd0;", "a = 1'd1;",
		"if (y !== 1'd1)", "if (y !== 1'd0)",
		"$display(\"PASS\")", "$finish;",
	} {
		if !strings.Contains(tb, want) {
			t.Fatalf("testbench missing %q:\n%s", want, tb)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched vector lengths")
		}
	}()
	VerilogTestbench(n, vectors, expected[:1], 0)
}

func TestMultiBitPorts(t *testing.T) {
	forBothBackends(t, func(t *testing.T, build backend) {
		n := &Netlist{Name: "wide"}
		var bits []Net
		for i := 0; i < 4; i++ {
			b := n.NewNet()
			n.Inputs = append(n.Inputs, PortBit{Name: "x", Bit: i, Net: b})
			bits = append(bits, b)
		}
		for i, b := range bits {
			n.Outputs = append(n.Outputs, PortBit{Name: "y", Bit: i, Net: n.AddCell(INV, b)})
		}
		sim := build(t, n)
		out := sim.Step(map[string]uint64{"x": 0b1010})
		if out["y"] != 0b0101 {
			t.Fatalf("y = %#b", out["y"])
		}
	})
}

func TestSparsePortError(t *testing.T) {
	// A port declaring bits 0 and 2 but not 1 used to pad the gap with
	// net -1 and panic indexing vals[-1] mid-Step; now it is a named
	// construction error.
	n := &Netlist{Name: "sparse"}
	a, c := n.NewNet(), n.NewNet()
	n.Inputs = append(n.Inputs,
		PortBit{Name: "x", Bit: 0, Net: a},
		PortBit{Name: "x", Bit: 2, Net: c})
	n.Outputs = append(n.Outputs, PortBit{Name: "y", Bit: 0, Net: n.AddCell(OR2, a, c)})
	_, err := NewSimulator(n)
	var pce *PortCoverageError
	if !errors.As(err, &pce) {
		t.Fatalf("err = %v, want *PortCoverageError", err)
	}
	if pce.Port != "x" || pce.Bit != 1 || pce.Dir != "input" || pce.Width != 3 {
		t.Fatalf("error fields = %+v", pce)
	}

	// Same hole on an output port.
	n2 := &Netlist{Name: "sparseout"}
	b := n2.NewNet()
	n2.Inputs = append(n2.Inputs, PortBit{Name: "a", Bit: 0, Net: b})
	n2.Outputs = append(n2.Outputs, PortBit{Name: "y", Bit: 1, Net: n2.AddCell(INV, b)})
	_, err = NewSimulator(n2)
	if !errors.As(err, &pce) || pce.Dir != "output" || pce.Bit != 0 {
		t.Fatalf("output-port err = %v", err)
	}
}

func TestPortValidation(t *testing.T) {
	base := func() (*Netlist, Net) {
		n := &Netlist{Name: "pv"}
		a := n.NewNet()
		n.Inputs = append(n.Inputs, PortBit{Name: "a", Bit: 0, Net: a})
		n.Outputs = append(n.Outputs, PortBit{Name: "y", Bit: 0, Net: n.AddCell(INV, a)})
		return n, a
	}
	var pce *PortCoverageError

	n, a := base()
	n.Inputs = append(n.Inputs, PortBit{Name: "a", Bit: 0, Net: a})
	if _, err := NewSimulator(n); !errors.As(err, &pce) || pce.Reason != "bit bound to two nets" {
		t.Fatalf("duplicate bit err = %v", err)
	}

	n, _ = base()
	n.Outputs = append(n.Outputs, PortBit{Name: "z", Bit: 0, Net: Net(99)})
	if _, err := NewSimulator(n); !errors.As(err, &pce) {
		t.Fatalf("out-of-range net err = %v", err)
	}

	n, _ = base()
	wide := n.NewNet()
	n.Inputs = append(n.Inputs, PortBit{Name: "w", Bit: 64, Net: wide})
	if _, err := NewSimulator(n); !errors.As(err, &pce) || pce.Port != "w" {
		t.Fatalf("over-wide port err = %v", err)
	}
}
