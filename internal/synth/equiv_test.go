package synth

import (
	"strings"
	"testing"

	"repro/internal/hls"
	"repro/internal/rtl"
)

// Complete formal equivalence for every bundled design small enough to
// enumerate, combinational and pipelined.
func TestProveEquivalenceExhaustive(t *testing.T) {
	cases := []struct {
		d     *hls.Design
		clock int
	}{
		{hls.MACDesign(4), 100000},
		{hls.MACDesign(4), 250}, // pipelined
		{hls.ALUDesign(4), 100000},
		{hls.AdderTreeDesign(3, 5), 100000},
		{hls.EncoderDesign(8), 100000},
		{hls.DecoderDesign(16), 100000},
		{hls.PriorityArbiterDesign(14), 100000},
		{hls.PopcountDesign(14), 100000},
		{hls.MaxTreeDesign(3, 5), 100000},
		{hls.CrossbarDstLoopDesign(2, 4), 100000},
		{hls.CrossbarSrcLoopDesign(2, 4), 100000},
		{hls.FIRDesign(2, 4), 400}, // pipelined
	}
	for _, c := range cases {
		s, nl := Compile(c.d, hls.Constraints{ClockPS: c.clock})
		proven, err := ProveEquivalence(c.d, s.Latency, nl, 16)
		if err != nil {
			t.Errorf("%s @ %dps: %v", c.d.Name, c.clock, err)
			continue
		}
		total := 0
		for _, p := range c.d.Inputs {
			total += p.Width
		}
		if proven != 1<<uint(total) {
			t.Errorf("%s: proved %d of %d vectors", c.d.Name, proven, 1<<uint(total))
		}
	}
}

// The checker must actually catch bugs: corrupt one cell in a proven
// netlist and confirm non-equivalence is reported.
func TestProveEquivalenceCatchesMutation(t *testing.T) {
	d := hls.MACDesign(4)
	s, nl := Compile(d, hls.Constraints{ClockPS: 100000})
	if _, err := ProveEquivalence(d, s.Latency, nl, 16); err != nil {
		t.Fatalf("healthy netlist not equivalent: %v", err)
	}
	caught := 0
	tried := 0
	for i := 0; i < len(nl.Cells) && tried < 12; i++ {
		c := nl.Cells[i]
		var mutated rtl.CellKind
		switch c.Kind {
		case rtl.AND2:
			mutated = rtl.OR2
		case rtl.XOR2:
			mutated = rtl.XNOR2
		case rtl.OR2:
			mutated = rtl.AND2
		default:
			continue
		}
		tried++
		nl.Cells[i].Kind = mutated
		if _, err := ProveEquivalence(d, s.Latency, nl, 16); err != nil {
			caught++
		}
		nl.Cells[i].Kind = c.Kind
	}
	if tried == 0 {
		t.Fatal("no mutable cells found")
	}
	if caught != tried {
		t.Fatalf("mutation testing: caught %d of %d injected faults", caught, tried)
	}
}

func TestProveEquivalenceRefusesLargeSpace(t *testing.T) {
	d := hls.MACDesign(16)
	s, nl := Compile(d, hls.Constraints{ClockPS: 100000})
	if _, err := ProveEquivalence(d, s.Latency, nl, 16); err == nil {
		t.Fatal("48-bit input space accepted for exhaustive proof")
	}
}

// A netlist with several wrong outputs fails on the first one in port
// order, every time.
func TestEquivalenceFailureNamesFirstOutput(t *testing.T) {
	d := hls.CrossbarDstLoopDesign(2, 4)
	s, nl := Compile(d, hls.Constraints{ClockPS: 100000})
	for i, b := range nl.Outputs {
		switch b.Name {
		case "out0":
			nl.Outputs[i].Name = "out1"
		case "out1":
			nl.Outputs[i].Name = "out0"
		}
	}
	msgs := map[string]int{}
	for i := 0; i < 50; i++ {
		_, err := ProveEquivalence(d, s.Latency, nl, 16)
		if err == nil {
			t.Fatal("netlist with swapped outputs proven equivalent")
		}
		msgs[err.Error()]++
	}
	if len(msgs) != 1 {
		t.Fatalf("50 proofs gave %d different errors: %v", len(msgs), msgs)
	}
	for m := range msgs {
		if !strings.Contains(m, "output out0 ") {
			t.Fatalf("error names another output: %s", m)
		}
	}
}
