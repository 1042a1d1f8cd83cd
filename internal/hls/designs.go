package hls

import "fmt"

// This file captures the datapath designs used by the paper-reproduction
// experiments: the §2.4 crossbar case study in both codings, and the
// "range of datapath modules and small functional units" behind the ±10%
// QoR claim of §2.2.

// CrossbarDstLoopDesign is the efficient coding: for each output, read
// in[src[dst]] — one balanced select-mux tree per output.
func CrossbarDstLoopDesign(lanes, width int) *Design {
	b := NewBuilder(fmt.Sprintf("xbar_dst_%dx%d", lanes, width))
	in := b.InputArray("in", width, lanes)
	sel := b.InputArray("src", log2ceil(lanes), lanes)
	for dst := 0; dst < lanes; dst++ {
		b.Output(fmt.Sprintf("out%d", dst), b.ReadIdx(in, sel[dst]))
	}
	return b.Build()
}

// CrossbarSrcLoopDesign is the naive coding: for each input, write
// out[dst[src]] = in[src] — which unrolls into a serial priority-mux
// chain with a comparator per (src, dst) pair, the structure behind the
// paper's ~25% area penalty and slower HLS runs.
func CrossbarSrcLoopDesign(lanes, width int) *Design {
	b := NewBuilder(fmt.Sprintf("xbar_src_%dx%d", lanes, width))
	in := b.InputArray("in", width, lanes)
	dst := b.InputArray("dst", log2ceil(lanes), lanes)
	outs := make([]Val, lanes)
	zero := b.Const(0, width)
	for j := range outs {
		outs[j] = zero
	}
	for src := 0; src < lanes; src++ {
		b.WriteIdx(outs, dst[src], in[src])
	}
	for j, o := range outs {
		b.Output(fmt.Sprintf("out%d", j), o)
	}
	return b.Build()
}

// MACDesign is a multiply-accumulate: out = a*b + acc.
func MACDesign(width int) *Design {
	b := NewBuilder(fmt.Sprintf("mac_%d", width))
	a := b.Input("a", width)
	x := b.Input("b", width)
	acc := b.Input("acc", width)
	b.Output("out", b.Add(b.Mul(a, x), acc))
	return b.Build()
}

// FIRDesign is a direct-form FIR filter with runtime coefficients.
func FIRDesign(taps, width int) *Design {
	b := NewBuilder(fmt.Sprintf("fir_%dt_%d", taps, width))
	xs := b.InputArray("x", width, taps)
	hs := b.InputArray("h", width, taps)
	prods := make([]Val, taps)
	for i := range prods {
		prods[i] = b.Mul(xs[i], hs[i])
	}
	b.Output("y", b.ReduceAdd(prods))
	return b.Build()
}

// AdderTreeDesign sums n inputs with a balanced tree.
func AdderTreeDesign(n, width int) *Design {
	b := NewBuilder(fmt.Sprintf("addtree_%dx%d", n, width))
	xs := b.InputArray("x", width, n)
	b.Output("sum", b.ReduceAdd(xs))
	return b.Build()
}

// ALUDesign is an 8-function ALU selected by a 3-bit opcode.
func ALUDesign(width int) *Design {
	b := NewBuilder(fmt.Sprintf("alu_%d", width))
	a := b.Input("a", width)
	x := b.Input("b", width)
	op := b.Input("op", 3)
	fns := []Val{
		b.Add(a, x), b.Sub(a, x), b.And(a, x), b.Or(a, x),
		b.Xor(a, x), b.Shl(a, 1), b.Shr(a, 1), b.Not(a),
	}
	b.Output("out", b.ReadIdx(fns, op))
	return b.Build()
}

// DecoderDesign converts a binary index to a one-hot vector.
func DecoderDesign(n int) *Design {
	b := NewBuilder(fmt.Sprintf("decoder_%d", n))
	idx := b.Input("idx", log2ceil(n))
	bits := make([]Val, n)
	for i := range bits {
		bits[i] = b.EqConst(idx, uint64(i))
	}
	out := bits[0]
	for i := 1; i < n; i++ {
		out = b.Concat(out, bits[i])
	}
	b.Output("onehot", out)
	return b.Build()
}

// EncoderDesign converts a one-hot vector to a binary index.
func EncoderDesign(n int) *Design {
	b := NewBuilder(fmt.Sprintf("encoder_%d", n))
	oh := b.Input("onehot", n)
	w := log2ceil(n)
	if w == 0 {
		w = 1
	}
	idx := b.Const(0, w)
	for i := 1; i < n; i++ {
		hit := b.Slice(oh, i, 1)
		idx = b.Mux(hit, b.Const(uint64(i), w), idx)
	}
	b.Output("idx", idx)
	return b.Build()
}

// PriorityArbiterDesign grants the lowest-indexed requester (one-hot).
func PriorityArbiterDesign(n int) *Design {
	b := NewBuilder(fmt.Sprintf("priarb_%d", n))
	req := b.Input("req", n)
	var blocked Val // OR of lower requests
	grants := make([]Val, n)
	for i := 0; i < n; i++ {
		r := b.Slice(req, i, 1)
		if i == 0 {
			grants[i] = r
			blocked = r
		} else {
			grants[i] = b.And(r, b.Not(blocked))
			if i < n-1 { // the last requester blocks no one
				blocked = b.Or(blocked, r)
			}
		}
	}
	out := grants[0]
	for i := 1; i < n; i++ {
		out = b.Concat(out, grants[i])
	}
	b.Output("grant", out)
	return b.Build()
}

// MaxTreeDesign returns the maximum of n unsigned inputs.
func MaxTreeDesign(n, width int) *Design {
	b := NewBuilder(fmt.Sprintf("maxtree_%dx%d", n, width))
	layer := b.InputArray("x", width, n)
	for len(layer) > 1 {
		var next []Val
		for i := 0; i < len(layer); i += 2 {
			if i+1 < len(layer) {
				lt := b.Lt(layer[i], layer[i+1])
				next = append(next, b.Mux(lt, layer[i+1], layer[i]))
			} else {
				next = append(next, layer[i])
			}
		}
		layer = next
	}
	b.Output("max", layer[0])
	return b.Build()
}

// PopcountDesign counts set bits of an n-bit input.
func PopcountDesign(n int) *Design {
	b := NewBuilder(fmt.Sprintf("popcount_%d", n))
	x := b.Input("x", n)
	w := log2ceil(n+1) + 1
	bits := make([]Val, n)
	for i := range bits {
		bits[i] = b.ZExt(b.Slice(x, i, 1), w)
	}
	b.Output("count", b.ReduceAdd(bits))
	return b.Build()
}
