package hls

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestInterpretMAC(t *testing.T) {
	d := MACDesign(16)
	out := d.Interpret(map[string]uint64{"a": 3, "b": 5, "acc": 7})
	if out["out"] != 22 {
		t.Fatalf("mac = %d, want 22", out["out"])
	}
	out = d.Interpret(map[string]uint64{"a": 0xffff, "b": 0xffff, "acc": 0})
	if out["out"] != (0xffff*0xffff)&0xffff {
		t.Fatalf("mac wrap = %#x", out["out"])
	}
}

func TestCrossbarDesignsMatchSoftwareModel(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for _, lanes := range []int{2, 4, 8} {
		dDst := CrossbarDstLoopDesign(lanes, 16)
		dSrc := CrossbarSrcLoopDesign(lanes, 16)
		for iter := 0; iter < 50; iter++ {
			in := make([]uint64, lanes)
			perm := r.Perm(lanes)
			dstIn := map[string]uint64{}
			srcIn := map[string]uint64{}
			for i := range in {
				in[i] = r.Uint64() & 0xffff
				dstIn[fmt.Sprintf("in%d", i)] = in[i]
				srcIn[fmt.Sprintf("in%d", i)] = in[i]
			}
			// dst-loop wants src[dst]; src-loop wants dst[src] = perm.
			for d2 := 0; d2 < lanes; d2++ {
				for s2 := 0; s2 < lanes; s2++ {
					if perm[s2] == d2 {
						dstIn[fmt.Sprintf("src%d", d2)] = uint64(s2)
					}
				}
			}
			for s2 := 0; s2 < lanes; s2++ {
				srcIn[fmt.Sprintf("dst%d", s2)] = uint64(perm[s2])
			}
			outDst := dDst.Interpret(dstIn)
			outSrc := dSrc.Interpret(srcIn)
			for j := 0; j < lanes; j++ {
				name := fmt.Sprintf("out%d", j)
				if outDst[name] != outSrc[name] {
					t.Fatalf("lanes=%d out%d: dst-loop %#x vs src-loop %#x", lanes, j, outDst[name], outSrc[name])
				}
			}
		}
	}
}

func TestALUDesign(t *testing.T) {
	d := ALUDesign(8)
	cases := []struct {
		op   uint64
		a, b uint64
		want uint64
	}{
		{0, 200, 100, 44}, // add wraps
		{1, 10, 3, 7},     // sub
		{2, 0xf0, 0x3c, 0x30},
		{3, 0xf0, 0x3c, 0xfc},
		{4, 0xf0, 0x3c, 0xcc},
		{5, 0x81, 0, 0x02}, // shl1
		{6, 0x81, 0, 0x40}, // shr1
		{7, 0x0f, 0, 0xf0}, // not
	}
	for _, c := range cases {
		out := d.Interpret(map[string]uint64{"a": c.a, "b": c.b, "op": c.op})
		if out["out"] != c.want {
			t.Fatalf("alu op %d: got %#x want %#x", c.op, out["out"], c.want)
		}
	}
}

func TestEncoderDecoderInverse(t *testing.T) {
	const n = 8
	dec := DecoderDesign(n)
	enc := EncoderDesign(n)
	for i := uint64(0); i < n; i++ {
		oh := dec.Interpret(map[string]uint64{"idx": i})["onehot"]
		if oh != 1<<i {
			t.Fatalf("decode(%d) = %#x", i, oh)
		}
		back := enc.Interpret(map[string]uint64{"onehot": oh})["idx"]
		if back != i {
			t.Fatalf("encode(decode(%d)) = %d", i, back)
		}
	}
}

func TestPriorityArbiterDesign(t *testing.T) {
	d := PriorityArbiterDesign(6)
	for req := uint64(0); req < 64; req++ {
		grant := d.Interpret(map[string]uint64{"req": req})["grant"]
		if req == 0 {
			if grant != 0 {
				t.Fatalf("grant %b for no requests", grant)
			}
			continue
		}
		if grant&(grant-1) != 0 || grant == 0 {
			t.Fatalf("req %b: grant %b not one-hot", req, grant)
		}
		if grant != req&-req {
			t.Fatalf("req %b: grant %b not lowest requester", req, grant)
		}
	}
}

func TestMaxTreeAndPopcount(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	dm := MaxTreeDesign(7, 12)
	dp := PopcountDesign(13)
	for iter := 0; iter < 200; iter++ {
		in := map[string]uint64{}
		var want uint64
		for i := 0; i < 7; i++ {
			v := r.Uint64() & 0xfff
			in[fmt.Sprintf("x%d", i)] = v
			if v > want {
				want = v
			}
		}
		if got := dm.Interpret(in)["max"]; got != want {
			t.Fatalf("max = %d, want %d", got, want)
		}
		x := r.Uint64() & 0x1fff
		pc := uint64(0)
		for b := x; b != 0; b &= b - 1 {
			pc++
		}
		if got := dp.Interpret(map[string]uint64{"x": x})["count"]; got != pc {
			t.Fatalf("popcount(%#x) = %d, want %d", x, got, pc)
		}
	}
}

// Property: Optimize preserves input/output semantics on random vectors
// and never increases op count.
func TestOptimizePreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	designs := []*Design{
		MACDesign(16), FIRDesign(8, 16), AdderTreeDesign(9, 24),
		ALUDesign(16), CrossbarSrcLoopDesign(4, 8), CrossbarDstLoopDesign(4, 8),
		EncoderDesign(8), DecoderDesign(8), PriorityArbiterDesign(8),
		MaxTreeDesign(5, 16), PopcountDesign(16),
	}
	for _, d := range designs {
		opt := Optimize(d)
		if opt.OpCount() > d.OpCount() {
			t.Errorf("%s: optimize grew ops %d -> %d", d.Name, d.OpCount(), opt.OpCount())
		}
		for iter := 0; iter < 50; iter++ {
			in := d.RandomInputs(r)
			a, b := d.Interpret(in), opt.Interpret(in)
			for name := range a {
				if a[name] != b[name] {
					t.Fatalf("%s: output %s differs after optimize: %#x vs %#x", d.Name, name, a[name], b[name])
				}
			}
		}
	}
}

func TestOptimizeFoldsConstants(t *testing.T) {
	b := NewBuilder("fold")
	x := b.Input("x", 8)
	c := b.Add(b.Const(3, 8), b.Const(4, 8)) // should fold to 7
	b.Output("y", b.Add(x, c))
	d := Optimize(b.Build())
	if d.OpCount() != 1 {
		t.Fatalf("op count after fold = %d, want 1 (just the add)", d.OpCount())
	}
}

func TestOptimizeCSE(t *testing.T) {
	b := NewBuilder("cse")
	x := b.Input("x", 8)
	y := b.Input("y", 8)
	b.Output("a", b.Mul(x, y))
	b.Output("b", b.Mul(x, y)) // duplicate
	d := Optimize(b.Build())
	if d.OpCount() != 1 {
		t.Fatalf("op count after CSE = %d, want 1", d.OpCount())
	}
}

// Pipelining invariants: stages are topologically consistent and no
// intra-stage combinational path exceeds the achieved period.
func TestPipelineTimingInvariant(t *testing.T) {
	for _, d := range []*Design{
		FIRDesign(16, 32), CrossbarSrcLoopDesign(8, 32), AdderTreeDesign(32, 32), MACDesign(32),
	} {
		d := Optimize(d)
		s := Pipeline(d, Constraints{ClockPS: 400})
		finish := make([]int, len(d.Ops))
		for _, op := range d.Ops {
			start := 0
			for _, a := range op.Args {
				if a.Stage > op.Stage {
					t.Fatalf("%s: op %d stage %d before arg stage %d", d.Name, op.ID, op.Stage, a.Stage)
				}
				if a.Stage == op.Stage && finish[a.ID] > start {
					start = finish[a.ID]
				}
			}
			finish[op.ID] = start + opDelay(op)
			if finish[op.ID] > s.Period {
				t.Fatalf("%s: op %d finishes at %dps > period %dps", d.Name, op.ID, finish[op.ID], s.Period)
			}
		}
		if s.Latency == 0 {
			t.Errorf("%s: expected pipelining at 400ps", d.Name)
		}
		if s.RegBits == 0 {
			t.Errorf("%s: pipelined design has no pipeline registers", d.Name)
		}
	}
}

func TestNoPipelineKeepsCombinational(t *testing.T) {
	d := Optimize(FIRDesign(16, 32))
	s := Pipeline(d, Constraints{ClockPS: 400, NoPipeline: true})
	if s.Latency != 0 {
		t.Fatalf("latency %d with NoPipeline", s.Latency)
	}
	if s.Period <= 400 {
		t.Fatalf("combinational FIR cannot meet 400ps; period = %d", s.Period)
	}
}

func TestResourceConstraintIncreasesLatency(t *testing.T) {
	free := Pipeline(Optimize(FIRDesign(16, 16)), Constraints{ClockPS: 1200})
	tight := Pipeline(Optimize(FIRDesign(16, 16)), Constraints{ClockPS: 1200, MaxMuls: 2})
	if tight.Latency <= free.Latency {
		t.Fatalf("latency %d with 2 muls <= %d unconstrained", tight.Latency, free.Latency)
	}
}

// The §2.4 src-loop coding takes more scheduler work than dst-loop at
// every size; its area penalty is checked on mapped gates by core's
// TestQoRTableBands.
func TestSrcLoopPenalty(t *testing.T) {
	for _, lanes := range []int{8, 16, 32} {
		cons := DefaultConstraints()
		src := Pipeline(Optimize(CrossbarSrcLoopDesign(lanes, 32)), cons)
		dst := Pipeline(Optimize(CrossbarDstLoopDesign(lanes, 32)), cons)
		if src.Steps <= dst.Steps {
			t.Errorf("lanes=%d: src-loop scheduling steps %d <= dst-loop %d", lanes, src.Steps, dst.Steps)
		}
	}
}

func TestValidateCatchesBadDesign(t *testing.T) {
	d := &Design{Name: "bad", Ops: []*Op{{ID: 0, Kind: OpAdd, Width: 8}}}
	if err := d.Validate(); err == nil {
		t.Fatal("no error for arity violation")
	}
}

func BenchmarkScheduleCrossbarSrc32(b *testing.B) {
	d := Optimize(CrossbarSrcLoopDesign(32, 32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pipeline(d, DefaultConstraints())
	}
}

func BenchmarkScheduleCrossbarDst32(b *testing.B) {
	d := Optimize(CrossbarDstLoopDesign(32, 32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pipeline(d, DefaultConstraints())
	}
}
