package hls

import (
	"fmt"
	"math/rand"
)

// OpKind enumerates dataflow operations. All values are unsigned words of
// at most 64 bits; arithmetic wraps at the operation width.
type OpKind int

// Operation kinds.
const (
	OpInput OpKind = iota
	OpOutput
	OpConst
	OpAdd
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpNot
	OpShlC // shift left by constant Amount
	OpShrC // shift right by constant Amount
	OpEq   // 1-bit result
	OpLt   // unsigned less-than, 1-bit result
	OpMux  // operands: sel(1), a, b → sel ? a : b
	OpSlice
	OpZExt
	OpConcat // operands: lo, hi
)

var opNames = map[OpKind]string{
	OpInput: "input", OpOutput: "output", OpConst: "const",
	OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpShlC: "shl", OpShrC: "shr", OpEq: "eq", OpLt: "lt",
	OpMux: "mux", OpSlice: "slice", OpZExt: "zext", OpConcat: "concat",
}

func (k OpKind) String() string {
	if n, ok := opNames[k]; ok {
		return n
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one node of the dataflow graph, in SSA form: operands reference
// earlier nodes only.
type Op struct {
	ID     int
	Kind   OpKind
	Width  int
	Args   []*Op
	Value  uint64 // OpConst value
	Amount int    // OpShlC/OpShrC shift, OpSlice low bit
	Name   string // OpInput/OpOutput port name

	// Filled by scheduling.
	Stage int
}

// Design is a complete captured dataflow design.
type Design struct {
	Name    string
	Ops     []*Op // topologically ordered (SSA creation order)
	Inputs  []*Op
	Outputs []*Op
}

// mask returns the width mask for w bits.
func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// Eval computes an op's value from already-computed operand values.
func (o *Op) Eval(args []uint64) uint64 {
	m := mask(o.Width)
	switch o.Kind {
	case OpConst:
		return o.Value & m
	case OpAdd:
		return (args[0] + args[1]) & m
	case OpSub:
		return (args[0] - args[1]) & m
	case OpMul:
		return (args[0] * args[1]) & m
	case OpAnd:
		return args[0] & args[1]
	case OpOr:
		return args[0] | args[1]
	case OpXor:
		return args[0] ^ args[1]
	case OpNot:
		return ^args[0] & m
	case OpShlC:
		if o.Amount >= 64 {
			return 0
		}
		return (args[0] << uint(o.Amount)) & m
	case OpShrC:
		if o.Amount >= 64 {
			return 0
		}
		return args[0] >> uint(o.Amount)
	case OpEq:
		if args[0] == args[1] {
			return 1
		}
		return 0
	case OpLt:
		if args[0] < args[1] {
			return 1
		}
		return 0
	case OpMux:
		if args[0]&1 == 1 {
			return args[1] & m
		}
		return args[2] & m
	case OpSlice:
		return (args[0] >> uint(o.Amount)) & m
	case OpZExt, OpOutput:
		return args[0] & m
	case OpConcat:
		lo := args[0] & mask(o.Args[0].Width)
		return (lo | args[1]<<uint(o.Args[0].Width)) & m
	default:
		panic(fmt.Sprintf("hls: cannot evaluate %v", o.Kind))
	}
}

// Interpret runs the design as untimed software — the golden reference
// against which generated netlists are checked for equivalence.
func (d *Design) Interpret(inputs map[string]uint64) map[string]uint64 {
	vals := make([]uint64, len(d.Ops))
	for _, op := range d.Ops {
		if op.Kind == OpInput {
			vals[op.ID] = inputs[op.Name] & mask(op.Width)
			continue
		}
		args := make([]uint64, len(op.Args))
		for i, a := range op.Args {
			args[i] = vals[a.ID]
		}
		vals[op.ID] = op.Eval(args)
	}
	out := make(map[string]uint64, len(d.Outputs))
	for _, o := range d.Outputs {
		out[o.Name] = vals[o.ID]
	}
	return out
}

// RandomInputs draws one input vector from r: a masked word per input
// port, in port order, so a seeded stream is the same for a design and
// its optimized form.
func (d *Design) RandomInputs(r *rand.Rand) map[string]uint64 {
	in := make(map[string]uint64, len(d.Inputs))
	for _, p := range d.Inputs {
		in[p.Name] = r.Uint64() & mask(p.Width)
	}
	return in
}

// OpCount returns the number of non-port operations, the unrolled design
// size that drives HLS scheduling effort.
func (d *Design) OpCount() int {
	n := 0
	for _, op := range d.Ops {
		switch op.Kind {
		case OpInput, OpOutput, OpConst:
		default:
			n++
		}
	}
	return n
}

// Validate checks SSA ordering, widths and arities.
func (d *Design) Validate() error {
	seen := make([]bool, len(d.Ops))
	for i, op := range d.Ops {
		if op.ID != i {
			return fmt.Errorf("hls: %s: op %d has ID %d", d.Name, i, op.ID)
		}
		if op.Width < 1 || op.Width > 64 {
			return fmt.Errorf("hls: %s: op %d width %d", d.Name, i, op.Width)
		}
		for _, a := range op.Args {
			if a.ID >= i || !seen[a.ID] {
				return fmt.Errorf("hls: %s: op %d uses later op %d", d.Name, i, a.ID)
			}
		}
		want := map[OpKind]int{
			OpInput: 0, OpConst: 0, OpOutput: 1, OpNot: 1, OpShlC: 1,
			OpShrC: 1, OpSlice: 1, OpZExt: 1, OpMux: 3, OpConcat: 2,
		}
		if n, ok := want[op.Kind]; ok {
			if len(op.Args) != n {
				return fmt.Errorf("hls: %s: op %d (%v) arity %d", d.Name, i, op.Kind, len(op.Args))
			}
		} else if len(op.Args) != 2 {
			return fmt.Errorf("hls: %s: op %d (%v) arity %d", d.Name, i, op.Kind, len(op.Args))
		}
		if (op.Kind == OpEq || op.Kind == OpLt) && op.Width != 1 {
			return fmt.Errorf("hls: %s: comparison op %d must be 1 bit wide", d.Name, i)
		}
		seen[i] = true
	}
	return nil
}
