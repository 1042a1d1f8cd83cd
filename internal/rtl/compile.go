package rtl

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// This file is the Simulator's evaluator: a Verilator-style lowering of
// the levelized netlist into straight-line word-level evaluation.
//
// Nets are renumbered into a dense internal layout — input-port bits
// first, then combinational outputs in execution order, then DFF
// outputs, then floating nets — with each region padded to a 64-bit
// boundary. Values live as 0/1 byte lanes for branch-free evaluation;
// after every cycle the driven region is packed 64 nets per []uint64
// word with a SWAR gather, and Toggles is the popcount of the XOR
// against the previous cycle's packed words. Because the layout puts a
// cell's output at combBase+execIndex, the op stream needs no output
// array at all, and cells are regrouped by (logic level, kind) so one
// tight loop per same-kind run replaces a per-cell switch. DFF capture
// is batched: gather every D lane, then block-copy over the Q region,
// so flop-to-flop chains read every D before any Q is written.
//
// The compiler refuses netlist shapes whose aliasing breaks the dense
// layout (a net driven twice, or doubling as an input-port bit), and
// NewSimulator returns the refusal as a construction error. The
// per-cell reference interpreter that defines these semantics lives in
// the package's tests (interp_test.go), which compare the two.

type opRun struct {
	kind       CellKind
	start, end int // exec-index range; output lane = combBase + index
}

type progPort struct {
	width int
	base  int     // inputs: lane of bit 0 (bits are contiguous)
	pos   []int32 // outputs: lane per bit (arbitrary nets)
}

type program struct {
	vals []uint8 // one 0/1 byte lane per internal net slot

	nIn      int
	combBase int
	nComb    int
	dffBase  int
	nDFF     int

	runs          []opRun
	ina, inb, inc []int32 // input lanes per comb op, indexed by exec index

	dffD   []int32 // D lane per flop; Q lane is dffBase+i
	dffTmp []uint8

	inPorts  []progPort
	outPorts []progPort

	// Packed toggle lanes covering the driven region
	// [combBase, align64(dffBase+nDFF)); swapped every cycle.
	cur, prev []uint64
}

func align64(n int) int { return (n + 63) &^ 63 }

// compile lowers a validated, levelized netlist into a program, or
// explains why its shape prevents the dense-layout lowering.
func compile(n *Netlist, order []Cell, inPorts, outPorts []Port) (*program, error) {
	const unassigned = -1
	loc := make([]int32, n.NumNets) // external net -> internal lane
	for i := range loc {
		loc[i] = unassigned
	}
	p := &program{}

	// Input-port bits: contiguous lanes in sorted-port order.
	lane := 0
	for _, pt := range inPorts {
		p.inPorts = append(p.inPorts, progPort{width: len(pt.Bits), base: lane})
		for _, net := range pt.Bits {
			if loc[net] != unassigned {
				return nil, fmt.Errorf("rtl: compile %s: net n%d bound to two input port bits", n.Name, net)
			}
			loc[net] = int32(lane)
			lane++
		}
	}
	p.nIn = lane
	p.combBase = align64(p.nIn)
	p.nComb = len(order)

	// Logic level per cell (longest path from a source), so same-kind
	// cells can be regrouped into runs without breaking topology: a
	// cell only ever reads nets from strictly lower levels.
	netLvl := make([]int32, n.NumNets)
	lvl := make([]int32, len(order))
	for i, c := range order {
		var l int32
		for _, in := range c.In {
			if netLvl[in] > l {
				l = netLvl[in]
			}
		}
		lvl[i] = l
		netLvl[c.Out] = l + 1
	}
	exec := make([]int, len(order))
	for i := range exec {
		exec[i] = i
	}
	sort.SliceStable(exec, func(a, b int) bool {
		if lvl[exec[a]] != lvl[exec[b]] {
			return lvl[exec[a]] < lvl[exec[b]]
		}
		return order[exec[a]].Kind < order[exec[b]].Kind
	})

	for ei, oi := range exec {
		net := order[oi].Out
		if loc[net] != unassigned {
			return nil, fmt.Errorf("rtl: compile %s: net n%d has two drivers", n.Name, net)
		}
		loc[net] = int32(p.combBase + ei)
	}
	p.dffBase = align64(p.combBase + p.nComb)
	p.nDFF = len(n.DFFs)
	for i, d := range n.DFFs {
		if loc[d.Out] != unassigned {
			return nil, fmt.Errorf("rtl: compile %s: DFF output net n%d has another driver", n.Name, d.Out)
		}
		loc[d.Out] = int32(p.dffBase + i)
	}
	// Floating nets: constant-zero lanes after the driven region.
	lane = align64(p.dffBase + p.nDFF)
	for net := range loc {
		if loc[net] == unassigned {
			loc[net] = int32(lane)
			lane++
		}
	}
	drivenEnd := align64(p.dffBase + p.nDFF)
	// Pad so the SWAR packer's 8-byte loads over the driven region stay
	// in bounds.
	p.vals = make([]uint8, align64(lane)+8)

	// Op stream: input lanes per exec position, fused into same-kind runs.
	p.ina = make([]int32, p.nComb)
	p.inb = make([]int32, p.nComb)
	p.inc = make([]int32, p.nComb)
	for ei, oi := range exec {
		c := order[oi]
		if len(c.In) > 0 {
			p.ina[ei] = loc[c.In[0]]
		}
		if len(c.In) > 1 {
			p.inb[ei] = loc[c.In[1]]
		}
		if len(c.In) > 2 {
			p.inc[ei] = loc[c.In[2]]
		}
		if nr := len(p.runs); nr > 0 && p.runs[nr-1].kind == c.Kind {
			p.runs[nr-1].end = ei + 1
		} else {
			p.runs = append(p.runs, opRun{kind: c.Kind, start: ei, end: ei + 1})
		}
	}

	p.dffD = make([]int32, p.nDFF)
	for i, d := range n.DFFs {
		p.dffD[i] = loc[d.In[0]]
	}
	p.dffTmp = make([]uint8, p.nDFF)

	for _, pt := range outPorts {
		op := progPort{width: len(pt.Bits), pos: make([]int32, len(pt.Bits))}
		for i, net := range pt.Bits {
			op.pos[i] = loc[net]
		}
		p.outPorts = append(p.outPorts, op)
	}

	words := (drivenEnd - p.combBase) / 64
	p.cur = make([]uint64, words)
	p.prev = make([]uint64, words)
	return p, nil
}

// step runs one cycle and returns the number of driven-net toggles.
// Ordering matches the reference interpreter exactly: settle
// combinational logic, gather outputs, then clock the flops.
func (p *program) step(in, out []uint64) uint64 {
	v := p.vals

	for i := range p.inPorts {
		ip := &p.inPorts[i]
		w := in[i]
		lanes := v[ip.base : ip.base+ip.width]
		for b := range lanes {
			lanes[b] = uint8(w >> uint(b) & 1)
		}
	}

	for _, r := range p.runs {
		ov := v[p.combBase+r.start : p.combBase+r.end]
		ina := p.ina[r.start:r.end]
		switch r.kind {
		case INV:
			for i := range ov {
				ov[i] = v[ina[i]] ^ 1
			}
		case BUF:
			for i := range ov {
				ov[i] = v[ina[i]]
			}
		case NAND2:
			inb := p.inb[r.start:r.end]
			for i := range ov {
				ov[i] = v[ina[i]]&v[inb[i]] ^ 1
			}
		case NOR2:
			inb := p.inb[r.start:r.end]
			for i := range ov {
				ov[i] = v[ina[i]] | v[inb[i]] ^ 1
			}
		case AND2:
			inb := p.inb[r.start:r.end]
			for i := range ov {
				ov[i] = v[ina[i]] & v[inb[i]]
			}
		case OR2:
			inb := p.inb[r.start:r.end]
			for i := range ov {
				ov[i] = v[ina[i]] | v[inb[i]]
			}
		case XOR2:
			inb := p.inb[r.start:r.end]
			for i := range ov {
				ov[i] = v[ina[i]] ^ v[inb[i]]
			}
		case XNOR2:
			inb := p.inb[r.start:r.end]
			for i := range ov {
				ov[i] = v[ina[i]] ^ v[inb[i]] ^ 1
			}
		case MUX2:
			inb, inc := p.inb[r.start:r.end], p.inc[r.start:r.end]
			for i := range ov {
				s := v[ina[i]]
				ov[i] = v[inb[i]]&(0-s) | v[inc[i]]&(s-1)
			}
		case TIE0:
			for i := range ov {
				ov[i] = 0
			}
		case TIE1:
			for i := range ov {
				ov[i] = 1
			}
		}
	}

	for i := range p.outPorts {
		op := &p.outPorts[i]
		var w uint64
		for b, pos := range op.pos {
			w |= uint64(v[pos]) << uint(b)
		}
		out[i] = w
	}

	// Rising edge: gather every D, then block-write the Q region, so a
	// flop feeding another flop still captures the pre-edge value.
	for i, d := range p.dffD {
		p.dffTmp[i] = v[d]
	}
	copy(v[p.dffBase:p.dffBase+p.nDFF], p.dffTmp)

	// Pack the driven region 64 lanes per word and count toggles against
	// the previous cycle. The multiply gathers the LSB of each of 8
	// bytes into bits 56..63 (0x0102040810204080 = Σ 2^(56-7k)).
	cur, prev := p.cur, p.prev
	var t uint64
	base := p.combBase
	for wi := range cur {
		off := base + wi*64
		var word uint64
		for j := 0; j < 64; j += 8 {
			chunk := binary.LittleEndian.Uint64(v[off+j:])
			word |= ((chunk & 0x0101010101010101) * 0x0102040810204080) >> 56 << uint(j)
		}
		cur[wi] = word
		t += uint64(bits.OnesCount64(word ^ prev[wi]))
	}
	p.cur, p.prev = prev, cur
	return t
}
