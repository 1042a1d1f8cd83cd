package synth

import "repro/internal/rtl"

// TechLib holds per-cell area (NAND2 equivalents) and pin-to-pin delay
// (picoseconds). The default library is a generic 16nm-class model.
type TechLib struct {
	Name    string
	Area    [12]float64 // indexed by rtl.CellKind
	Delay   [12]int
	ClkQ    int // DFF clock-to-Q, ps
	Setup   int // DFF setup, ps
	WireDly int // lumped per-stage wire allowance, ps
}

// Default16nm is the generic technology library used across the flow.
var Default16nm = TechLib{
	Name: "generic-16nm",
	Area: [12]float64{
		rtl.INV: 0.75, rtl.BUF: 0.75, rtl.NAND2: 1.0, rtl.NOR2: 1.0,
		rtl.AND2: 1.25, rtl.OR2: 1.25, rtl.XOR2: 2.25, rtl.XNOR2: 2.25,
		rtl.MUX2: 2.25, rtl.DFF: 4.5, rtl.TIE0: 0.25, rtl.TIE1: 0.25,
	},
	Delay: [12]int{
		rtl.INV: 10, rtl.BUF: 12, rtl.NAND2: 14, rtl.NOR2: 16,
		rtl.AND2: 18, rtl.OR2: 18, rtl.XOR2: 28, rtl.XNOR2: 28,
		rtl.MUX2: 26, rtl.DFF: 0, rtl.TIE0: 0, rtl.TIE1: 0,
	},
	ClkQ:    55,
	Setup:   40,
	WireDly: 30,
}

// NetlistArea sums the mapped netlist's area in NAND2 equivalents.
func (t *TechLib) NetlistArea(n *rtl.Netlist) float64 {
	var a float64
	for _, c := range n.Cells {
		a += t.Area[c.Kind]
	}
	for range n.DFFs {
		a += t.Area[rtl.DFF]
	}
	return a
}

// GateCount returns the NAND2-equivalent gate count, rounded.
func (t *TechLib) GateCount(n *rtl.Netlist) int {
	return int(t.NetlistArea(n) + 0.5)
}
