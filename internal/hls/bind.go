package hls

import (
	"fmt"
	"io"
	"slices"
)

// Binding is the resource-sharing result for a schedule executed at an
// initiation interval of II cycles: a new input set enters every II
// cycles, so operations whose stages are congruent modulo II execute in
// the same physical time slot and need distinct units, while operations
// in different slots time-multiplex one unit behind input muxes. This is
// the design-space-exploration knob HLS exposes without touching source
// code (§2.2 of the paper: "decoupling of functionality ... from design
// constraints").
type Binding struct {
	II int

	// Units needed per shareable operation kind.
	MulUnits int
	AddUnits int

	// Area accounting, NAND2 equivalents.
	UnsharedArea float64 // II = 1 baseline (no sharing possible)
	SharedArea   float64 // functional units + sharing muxes + registers
	SavingsPct   float64
}

// shareableKinds are the op kinds that occupy a functional unit worth
// time-multiplexing (wide arithmetic; cheap logic is never shared), in
// the fixed order the area sums visit them.
var shareableKinds = []OpKind{OpMul, OpAdd, OpSub}

func shareable(k OpKind) bool { return slices.Contains(shareableKinds, k) }

// Bind computes the resource sharing achievable at the given initiation
// interval for an already-pipelined design.
func Bind(s *Schedule, ii int) Binding {
	if ii < 1 {
		panic(fmt.Sprintf("hls: initiation interval %d < 1", ii))
	}
	b := Binding{II: ii}

	// Count shareable ops per (kind, stage mod II) slot, tracking the
	// widest instance per kind (the physical unit must cover it).
	type key struct {
		kind OpKind
		slot int
	}
	slots := map[key]int{}
	counts := map[OpKind]int{}
	maxW := map[OpKind]int{}
	var fixedArea float64 // non-shareable logic and ports
	for _, op := range s.Design.Ops {
		if !shareable(op.Kind) {
			fixedArea += opArea(op)
			continue
		}
		slots[key{op.Kind, op.Stage % ii}]++
		counts[op.Kind]++
		if op.Width > maxW[op.Kind] {
			maxW[op.Kind] = op.Width
		}
	}
	units := map[OpKind]int{}
	for _, kind := range shareableKinds {
		for slot := 0; slot < ii; slot++ {
			units[kind] = max(units[kind], slots[key{kind, slot}])
		}
	}
	b.MulUnits = units[OpMul]
	b.AddUnits = units[OpAdd] + units[OpSub]

	regArea := float64(s.RegBits) * RegBitArea
	b.UnsharedArea = fixedArea + regArea
	b.SharedArea = fixedArea + regArea
	for _, kind := range shareableKinds {
		total, w := counts[kind], maxW[kind]
		unit := opArea(&Op{Kind: kind, Width: w, Args: []*Op{{Width: w}, {Width: w}}})
		b.UnsharedArea += float64(total) * unit
		u := units[kind]
		if u == 0 {
			continue
		}
		b.SharedArea += float64(u) * unit
		// Each unit multiplexes total/u sources: a (total/u):1 mux per
		// operand input, built from 2:1 muxes.
		fan := (total + u - 1) / u
		if fan > 1 {
			muxes := float64(fan-1) * 2.25 * float64(w) * 2 // two operand inputs
			b.SharedArea += float64(u) * muxes
		}
	}
	if b.UnsharedArea > 0 {
		b.SavingsPct = 100 * (b.UnsharedArea - b.SharedArea) / b.UnsharedArea
	}
	return b
}

// IISweep reports Bind across a range of initiation intervals — the
// throughput-versus-area ablation of the scheduling constraints.
func IISweep(s *Schedule, iis []int) []Binding {
	out := make([]Binding, 0, len(iis))
	for _, ii := range iis {
		out = append(out, Bind(s, ii))
	}
	return out
}

// PrintIISweep renders the ablation.
func PrintIISweep(w io.Writer, name string, bs []Binding) {
	fmt.Fprintf(w, "Initiation-interval ablation for %s (area model, NAND2 equivalents)\n", name)
	fmt.Fprintf(w, "%-4s %6s %6s %12s %12s %9s\n", "II", "muls", "adds", "unshared", "shared", "savings")
	for _, b := range bs {
		fmt.Fprintf(w, "%-4d %6d %6d %12.0f %12.0f %8.1f%%\n",
			b.II, b.MulUnits, b.AddUnits, b.UnsharedArea, b.SharedArea, b.SavingsPct)
	}
}
