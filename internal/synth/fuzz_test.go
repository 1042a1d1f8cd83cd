package synth

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hls"
	"repro/internal/rtl"
)

// fuzzKinds is the builder op set a fuzz step draws from, indexed by the
// step's kind byte.
var fuzzKinds = []hls.OpKind{
	hls.OpConst, hls.OpAdd, hls.OpSub, hls.OpMul, hls.OpAnd, hls.OpOr,
	hls.OpXor, hls.OpNot, hls.OpShlC, hls.OpShrC, hls.OpEq, hls.OpLt,
	hls.OpMux, hls.OpSlice, hls.OpZExt, hls.OpConcat,
}

// fuzzBinary builds the two-operand kinds, whose operands share a width.
var fuzzBinary = map[hls.OpKind]func(*hls.Builder, hls.Val, hls.Val) hls.Val{
	hls.OpAdd: (*hls.Builder).Add, hls.OpSub: (*hls.Builder).Sub, hls.OpMul: (*hls.Builder).Mul,
	hls.OpAnd: (*hls.Builder).And, hls.OpOr: (*hls.Builder).Or, hls.OpXor: (*hls.Builder).Xor,
	hls.OpEq: (*hls.Builder).Eq, hls.OpLt: (*hls.Builder).Lt,
}

const (
	fuzzMaxOps   = 32
	fuzzMaxWidth = 32
	fuzzMaxPorts = 3
)

// Operand filters: a step's operands are drawn from the values built so
// far that satisfy them, so every decoded design is valid as built.
func anyWidth(int) bool            { return true }
func widthIs(w int) func(int) bool { return func(v int) bool { return v == w } }
func widthAtMost(w int) func(int) bool {
	return func(v int) bool { return v <= w }
}

// candidates returns the indices of the widths that pass ok.
func candidates(widths []int, ok func(int) bool) []int {
	var c []int
	for i, w := range widths {
		if ok(w) {
			c = append(c, i)
		}
	}
	return c
}

// fuzzBytes reads a fuzz input one byte at a time, as zeros once spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeDesign turns fuzz bytes into a bounded design and constraints:
// 1-3 inputs of 1-32 bits; a clock of 200-1000 ps, MaxMuls and MaxAdders
// of 0-2 and NoPipeline; at most 32 steps, each one builder op over
// earlier values; then 1-3 outputs. Every byte string decodes to a valid
// design, and encodeDesign writes the bytes of an existing one.
func decodeDesign(data []byte) (*hls.Design, hls.Constraints) {
	in := fuzzBytes(data)
	b := hls.NewBuilder("fuzz")
	var vals []hls.Val
	var widths []int
	push := func(v hls.Val) {
		vals = append(vals, v)
		widths = append(widths, v.Width())
	}
	pick := func(ok func(int) bool) (hls.Val, bool) {
		c := candidates(widths, ok)
		if len(c) == 0 {
			return hls.Val{}, false
		}
		return vals[c[in.next()%len(c)]], true
	}
	for i, n := 0, 1+in.next()%fuzzMaxPorts; i < n; i++ {
		push(b.Input(fmt.Sprintf("in%d", i), 1+in.next()%fuzzMaxWidth))
	}
	c := hls.Constraints{
		ClockPS:    200 + (in.next()<<8|in.next())%801,
		MaxMuls:    in.next() % 3,
		MaxAdders:  in.next() % 3,
		NoPipeline: in.next()%2 == 1,
	}
	for step, n := 0, in.next()%(fuzzMaxOps+1); step < n; step++ {
		kind := fuzzKinds[in.next()%len(fuzzKinds)]
		if kind == hls.OpConst {
			w := 1 + in.next()%fuzzMaxWidth
			v := uint64(in.next()) | uint64(in.next())<<8 | uint64(in.next())<<16 | uint64(in.next())<<24
			push(b.Const(v, w))
			continue
		}
		first := anyWidth
		switch kind {
		case hls.OpMux:
			first = widthIs(1)
		case hls.OpConcat:
			first = widthAtMost(fuzzMaxWidth - 1)
		}
		x, ok := pick(first)
		if !ok {
			continue
		}
		w := x.Width()
		switch kind {
		case hls.OpAdd, hls.OpSub, hls.OpMul, hls.OpAnd, hls.OpOr, hls.OpXor, hls.OpEq, hls.OpLt:
			y, _ := pick(widthIs(w)) // x itself qualifies
			push(fuzzBinary[kind](b, x, y))
		case hls.OpNot:
			push(b.Not(x))
		case hls.OpShlC:
			push(b.Shl(x, in.next()%w))
		case hls.OpShrC:
			push(b.Shr(x, in.next()%w))
		case hls.OpMux:
			t, _ := pick(anyWidth)
			f, _ := pick(widthIs(t.Width()))
			push(b.Mux(x, t, f))
		case hls.OpSlice:
			lo := in.next() % w
			push(b.Slice(x, lo, 1+in.next()%(w-lo)))
		case hls.OpZExt:
			push(b.ZExt(x, w+in.next()%(fuzzMaxWidth+1-w)))
		case hls.OpConcat:
			if hi, ok := pick(widthAtMost(fuzzMaxWidth - w)); ok {
				push(b.Concat(x, hi))
			}
		}
	}
	for i, n := 0, 1+in.next()%fuzzMaxPorts; i < n; i++ {
		v, _ := pick(anyWidth)
		b.Output(fmt.Sprintf("out%d", i), v)
	}
	return b.Build(), c
}

// encodeDesign writes the bytes decodeDesign reads back as d under c, so
// the bundled designs can seed the corpus. What the decoder's bounds
// cannot hold is cut: ports past the third, steps past the 32nd, and
// operands that did not survive the cut (index 0 stands in for them).
func encodeDesign(d *hls.Design, c hls.Constraints) []byte {
	var out []byte
	put := func(v int) { out = append(out, byte(v)) }
	index := map[int]int{} // op ID → decoded value index
	var widths []int
	arg := func(a *hls.Op, ok func(int) bool) {
		i, kept := index[a.ID]
		for k, ci := range candidates(widths, ok) {
			if kept && ci == i {
				put(k)
				return
			}
		}
		put(0)
	}
	keep := func(op *hls.Op) {
		index[op.ID] = len(widths)
		widths = append(widths, op.Width)
	}
	ins := d.Inputs[:min(len(d.Inputs), fuzzMaxPorts)]
	put(len(ins) - 1)
	for _, p := range ins {
		put(p.Width - 1)
		keep(p)
	}
	clock := min(max(c.ClockPS, 200), 1000) - 200
	put(clock >> 8)
	put(clock)
	put(c.MaxMuls)
	put(c.MaxAdders)
	if c.NoPipeline {
		put(1)
	} else {
		put(0)
	}
	var steps []*hls.Op
	for _, op := range d.Ops {
		if op.Kind != hls.OpInput && op.Kind != hls.OpOutput && len(steps) < fuzzMaxOps {
			steps = append(steps, op)
		}
	}
	put(len(steps))
	for _, op := range steps {
		for k, kind := range fuzzKinds {
			if kind == op.Kind {
				put(k)
			}
		}
		switch op.Kind {
		case hls.OpConst:
			put(op.Width - 1)
			for s := 0; s < 32; s += 8 {
				put(int(op.Value >> s))
			}
		case hls.OpMux:
			arg(op.Args[0], widthIs(1))
			arg(op.Args[1], anyWidth)
			arg(op.Args[2], widthIs(op.Args[1].Width))
		case hls.OpConcat:
			arg(op.Args[0], widthAtMost(fuzzMaxWidth-1))
			arg(op.Args[1], widthAtMost(fuzzMaxWidth-op.Args[0].Width))
		default:
			arg(op.Args[0], anyWidth)
			if len(op.Args) == 2 {
				arg(op.Args[1], widthIs(op.Args[0].Width))
			}
		}
		switch op.Kind {
		case hls.OpShlC, hls.OpShrC:
			put(op.Amount)
		case hls.OpSlice:
			put(op.Amount)
			put(op.Width - 1)
		case hls.OpZExt:
			put(op.Width - op.Args[0].Width)
		}
		keep(op)
	}
	outs := d.Outputs[:min(len(d.Outputs), fuzzMaxPorts)]
	put(len(outs) - 1)
	for _, o := range outs {
		arg(o.Args[0], anyWidth)
	}
	return out
}

// checkCompile runs seeded vectors through every stage of the compiler
// and fails at the first stage whose outputs diverge from the golden
// model: hls.Optimize, then the netlist synth.Map builds from the
// schedule, then that netlist after synth.Optimize. Designs with at most
// 12 input bits are also proven equivalent on every input.
func checkCompile(t *testing.T, d *hls.Design, c hls.Constraints) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	vecs := make([]map[string]uint64, 16)
	for k := range vecs {
		vecs[k] = d.RandomInputs(r)
	}
	opt := hls.Optimize(d)
	for k, in := range vecs {
		want, got := d.Interpret(in), opt.Interpret(in)
		for _, o := range d.Outputs {
			if got[o.Name] != want[o.Name] {
				t.Fatalf("hls.Optimize diverges: vector %d output %s = %#x, want %#x", k, o.Name, got[o.Name], want[o.Name])
			}
		}
	}
	s := hls.Pipeline(opt, c)
	mapped := Map(s)
	nl := Optimize(mapped)
	for _, st := range []struct {
		name string
		nl   *rtl.Netlist
	}{{"synth.Map", mapped}, {"synth.Optimize", nl}} {
		sim, err := rtl.NewSimulator(st.nl)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if _, err := Cosim(d, s.Latency, sim, len(vecs), func(k int) map[string]uint64 { return vecs[k%len(vecs)] }); err != nil {
			t.Fatalf("%s diverges (latency %d): %v", st.name, s.Latency, err)
		}
	}
	bits := 0
	for _, p := range d.Inputs {
		bits += p.Width
	}
	if bits <= 12 {
		if _, err := ProveEquivalence(d, s.Latency, nl, 12); err != nil {
			t.Fatalf("proof: %v", err)
		}
	}
}

// FuzzCompile compiles random bounded designs under random constraints
// and checks every compiler stage against the golden model. The corpus
// is seeded with small instances of every bundled design, at the default
// clock and at 300 ps; the FIR and crossbar seeds have a fourth input,
// which the encoding cuts.
func FuzzCompile(f *testing.F) {
	seeds := []*hls.Design{
		hls.MACDesign(4), hls.FIRDesign(2, 4), hls.AdderTreeDesign(3, 5),
		hls.ALUDesign(4), hls.EncoderDesign(8), hls.DecoderDesign(8),
		hls.PriorityArbiterDesign(6), hls.MaxTreeDesign(3, 5), hls.PopcountDesign(8),
		hls.CrossbarDstLoopDesign(2, 4), hls.CrossbarSrcLoopDesign(2, 4),
	}
	for _, d := range seeds {
		f.Add(encodeDesign(d, hls.DefaultConstraints()))
		f.Add(encodeDesign(d, hls.Constraints{ClockPS: 300}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, c := decodeDesign(data)
		checkCompile(t, d, c)
	})
}

// The encoder writes back exactly what the decoder reads for a design
// inside the bounds.
func TestFuzzEncodingRoundTrips(t *testing.T) {
	c := hls.Constraints{ClockPS: 300, MaxMuls: 1, MaxAdders: 2}
	for _, d := range []*hls.Design{
		hls.MACDesign(4), hls.AdderTreeDesign(3, 5), hls.ALUDesign(4), hls.EncoderDesign(8),
		hls.DecoderDesign(8), hls.PriorityArbiterDesign(6), hls.MaxTreeDesign(3, 5), hls.PopcountDesign(8),
	} {
		data := encodeDesign(d, c)
		got, gc := decodeDesign(data)
		if gc != c {
			t.Errorf("%s: constraints %+v, want %+v", d.Name, gc, c)
		}
		if len(got.Ops) != len(d.Ops) {
			t.Fatalf("%s: %d ops decoded, want %d", d.Name, len(got.Ops), len(d.Ops))
		}
		for i, op := range d.Ops {
			g := got.Ops[i]
			if g.Kind != op.Kind || g.Width != op.Width || g.Value != op.Value || g.Amount != op.Amount || len(g.Args) != len(op.Args) {
				t.Fatalf("%s: op %d decoded as %v/%d, want %v/%d", d.Name, i, g.Kind, g.Width, op.Kind, op.Width)
			}
			for j, a := range op.Args {
				if g.Args[j].ID != a.ID {
					t.Fatalf("%s: op %d arg %d is op %d, want %d", d.Name, i, j, g.Args[j].ID, a.ID)
				}
			}
		}
	}
}
