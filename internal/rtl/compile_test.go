package rtl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/trace"
)

// genNetlist builds a random DAG netlist: a few multi-bit input ports,
// ties, a soup of combinational cells drawing from every net created so
// far, flops (rewired at the end so D can see any net, including later
// comb outputs and other Qs), floating nets, and output ports sampling
// arbitrary nets. Every shape it produces is compilable; aliasing shapes
// get their own refusal test.
func genNetlist(r *rand.Rand) *Netlist {
	n := &Netlist{Name: "fuzz"}
	var pool []Net
	nIn := 1 + r.Intn(4)
	for p := 0; p < nIn; p++ {
		w := 1 + r.Intn(12)
		for b := 0; b < w; b++ {
			net := n.NewNet()
			n.Inputs = append(n.Inputs, PortBit{Name: fmt.Sprintf("in%d", p), Bit: b, Net: net})
			pool = append(pool, net)
		}
	}
	nDFF := r.Intn(20)
	for i := 0; i < nDFF; i++ {
		pool = append(pool, n.AddCell(DFF, pool[r.Intn(len(pool))]))
	}
	kinds := []CellKind{INV, BUF, NAND2, NOR2, AND2, OR2, XOR2, XNOR2, MUX2, TIE0, TIE1}
	nCells := 30 + r.Intn(270)
	for i := 0; i < nCells; i++ {
		k := kinds[r.Intn(len(kinds))]
		in := make([]Net, k.NumInputs())
		for j := range in {
			in[j] = pool[r.Intn(len(pool))]
		}
		pool = append(pool, n.AddCell(k, in...))
	}
	// Rewire flop Ds over the full pool so flop-to-flop and
	// comb-to-flop capture ordering is exercised.
	for i := range n.DFFs {
		n.DFFs[i].In[0] = pool[r.Intn(len(pool))]
	}
	// A few floating nets output ports may sample.
	for i := 0; i < 3; i++ {
		pool = append(pool, n.NewNet())
	}
	nOut := 1 + r.Intn(4)
	for p := 0; p < nOut; p++ {
		w := 1 + r.Intn(12)
		for b := 0; b < w; b++ {
			n.Outputs = append(n.Outputs, PortBit{Name: fmt.Sprintf("out%d", p), Bit: b, Net: pool[r.Intn(len(pool))]})
		}
	}
	return n
}

// TestCompiledMatchesInterpreter is the differential gate for the
// compiled Simulator: on randomized netlists, outputs every cycle,
// cumulative Toggles, and VCD bytes must be identical to the reference
// interpreter.
func TestCompiledMatchesInterpreter(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := genNetlist(r)
		ref := mustRef(t, n)
		cmp := mustSim(t, n)
		var refVCD, cmpVCD strings.Builder
		ref.AttachVCD(trace.NewVCD(&refVCD))
		cmp.AttachVCD(trace.NewVCD(&cmpVCD))

		inPorts := ref.InputPorts()
		inw := make([]uint64, len(inPorts))
		outw := make([]uint64, len(ref.OutputPorts()))
		for cycle := 0; cycle < 100; cycle++ {
			in := map[string]uint64{}
			for i, p := range inPorts {
				v := r.Uint64()
				in[p.Name] = v
				inw[i] = v
			}
			// Exercise both APIs: the map Step on the interpreter, the
			// word fast path on the compiled program.
			want := ref.Step(in)
			cmp.StepWords(inw, outw)
			for i, p := range cmp.OutputPorts() {
				if outw[i] != want[p.Name] {
					t.Fatalf("seed %d cycle %d: output %s = %#x, interpreter says %#x",
						seed, cycle, p.Name, outw[i], want[p.Name])
				}
			}
			if ref.Toggles != cmp.Toggles {
				t.Fatalf("seed %d cycle %d: toggles %d (compiled) vs %d (interp)",
					seed, cycle, cmp.Toggles, ref.Toggles)
			}
		}
		if ref.Cycles != cmp.Cycles {
			t.Fatalf("seed %d: cycles %d vs %d", seed, cmp.Cycles, ref.Cycles)
		}
		if refVCD.String() != cmpVCD.String() {
			t.Fatalf("seed %d: VCD bytes differ between backends", seed)
		}
	}
}

// TestVCDDeterministic locks in the satellite fix: building and running
// the same netlist twice must produce byte-identical VCDs — declaration
// order no longer depends on map iteration.
func TestVCDDeterministic(t *testing.T) {
	dump := func(build backend) string {
		r := rand.New(rand.NewSource(11))
		n := genNetlist(r)
		sim := build(t, n)
		var sb strings.Builder
		sim.AttachVCD(trace.NewVCD(&sb))
		for cycle := 0; cycle < 50; cycle++ {
			in := map[string]uint64{}
			for _, p := range sim.InputPorts() {
				in[p.Name] = r.Uint64()
			}
			sim.Step(in)
		}
		return sb.String()
	}
	a, b := dump(interp), dump(interp)
	if a != b {
		t.Fatal("two interpreter runs produced different VCD bytes")
	}
	if c := dump(compiled); c != a {
		t.Fatal("compiled VCD bytes differ from interpreter")
	}
}

// TestCompileRefusal: netlist shapes the dense layout cannot express are
// construction errors that name the netlist and the net.
func TestCompileRefusal(t *testing.T) {
	// Input port bit aliased onto a cell output: the net has two writers.
	n := &Netlist{Name: "alias"}
	a := n.NewNet()
	y := n.AddCell(INV, a)
	n.Inputs = append(n.Inputs,
		PortBit{Name: "a", Bit: 0, Net: a},
		PortBit{Name: "b", Bit: 0, Net: y})
	n.Outputs = append(n.Outputs, PortBit{Name: "y", Bit: 0, Net: y})

	// Two cells driving one net.
	n2 := &Netlist{Name: "multidrive"}
	x := n2.NewNet()
	n2.Inputs = append(n2.Inputs, PortBit{Name: "x", Bit: 0, Net: x})
	shared := n2.NewNet()
	n2.Cells = append(n2.Cells,
		Cell{Kind: INV, Out: shared, In: []Net{x}},
		Cell{Kind: BUF, Out: shared, In: []Net{x}})
	n2.Outputs = append(n2.Outputs, PortBit{Name: "y", Bit: 0, Net: shared})

	for _, tc := range []struct {
		n   *Netlist
		net Net
	}{{n, y}, {n2, shared}} {
		_, err := NewSimulator(tc.n)
		if err == nil {
			t.Fatalf("%s: NewSimulator accepted the netlist", tc.n.Name)
		}
		for _, want := range []string{tc.n.Name, fmt.Sprintf("n%d", tc.net)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: err = %q, want it to name %q", tc.n.Name, err, want)
			}
		}
	}
}

// TestValidateCells: malformed cell banks are construction errors, not
// mid-Step panics.
func TestValidateCells(t *testing.T) {
	n := &Netlist{Name: "badcell"}
	x := n.NewNet()
	n.Inputs = append(n.Inputs, PortBit{Name: "x", Bit: 0, Net: x})
	n.Cells = append(n.Cells, Cell{Kind: AND2, Out: n.NewNet(), In: []Net{x, Net(42)}})
	if _, err := NewSimulator(n); err == nil || !strings.Contains(err.Error(), "n42") {
		t.Fatalf("err = %v, want out-of-range net diagnostic", err)
	}

	n2 := &Netlist{Name: "dffbank"}
	y := n2.NewNet()
	n2.Inputs = append(n2.Inputs, PortBit{Name: "y", Bit: 0, Net: y})
	n2.Cells = append(n2.Cells, Cell{Kind: DFF, Out: n2.NewNet(), In: []Net{y}})
	if _, err := NewSimulator(n2); err == nil || !strings.Contains(err.Error(), "DFF") {
		t.Fatalf("err = %v, want misfiled-DFF diagnostic", err)
	}
}

// TestStepWordsNilOut covers the activity-counting mode soc/pe uses.
func TestStepWordsNilOut(t *testing.T) {
	forBothBackends(t, func(t *testing.T, build backend) {
		n := &Netlist{Name: "nilout"}
		a := n.NewNet()
		n.Inputs = append(n.Inputs, PortBit{Name: "a", Bit: 0, Net: a})
		q := n.AddCell(DFF, n.AddCell(INV, a))
		n.Outputs = append(n.Outputs, PortBit{Name: "q", Bit: 0, Net: q})
		sim := build(t, n)
		sim.StepWords([]uint64{1}, nil)
		sim.StepWords([]uint64{0}, nil)
		if cycles, toggles := sim.counts(); cycles != 2 || toggles == 0 {
			t.Fatalf("cycles %d toggles %d", cycles, toggles)
		}
	})
}
