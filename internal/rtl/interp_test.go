package rtl

import (
	"fmt"

	"repro/internal/trace"
)

// refSim is the reference interpreter the compiled Simulator is checked
// against: it walks the levelized cells one by one over a []bool net
// image. It shares the Simulator's port validation, port order and VCD
// declarations, so outputs, Toggles, Cycles and VCD bytes must match the
// compiled program exactly.
type refSim struct {
	n        *Netlist
	inPorts  []Port // sorted by name
	outPorts []Port
	order    []Cell
	vals     []bool
	next     []bool // DFF capture scratch

	Toggles uint64
	Cycles  uint64

	inBuf, outBuf []uint64 // scratch for the map-based Step

	vcd    *trace.VCD
	vcdIn  []*trace.Signal
	vcdOut []*trace.Signal
}

// newRefSim validates and levelizes n as NewSimulator does, without
// compiling it.
func newRefSim(n *Netlist) (*refSim, error) {
	if err := validateCells(n); err != nil {
		return nil, err
	}
	inPorts, err := collectPorts(n, n.Inputs, "input")
	if err != nil {
		return nil, err
	}
	outPorts, err := collectPorts(n, n.Outputs, "output")
	if err != nil {
		return nil, err
	}
	order, err := n.LevelizeChecked()
	if err != nil {
		return nil, err
	}
	return &refSim{
		n:        n,
		inPorts:  inPorts,
		outPorts: outPorts,
		order:    order,
		vals:     make([]bool, n.NumNets),
		next:     make([]bool, len(n.DFFs)),
		inBuf:    make([]uint64, len(inPorts)),
		outBuf:   make([]uint64, len(outPorts)),
	}, nil
}

func (s *refSim) InputPorts() []Port  { return s.inPorts }
func (s *refSim) OutputPorts() []Port { return s.outPorts }

// AttachVCD declares the ports on v in the Simulator's order and
// samples them after every step.
func (s *refSim) AttachVCD(v *trace.VCD) {
	s.vcd = v
	s.vcdIn, s.vcdOut = nil, nil
	for _, p := range s.inPorts {
		s.vcdIn = append(s.vcdIn, v.Declare(p.Name, len(p.Bits)))
	}
	for _, p := range s.outPorts {
		s.vcdOut = append(s.vcdOut, v.Declare(p.Name+"_o", len(p.Bits)))
	}
}

// Step is the map-based cycle: ports absent from inputs read as zero.
func (s *refSim) Step(inputs map[string]uint64) map[string]uint64 {
	for i, p := range s.inPorts {
		s.inBuf[i] = inputs[p.Name]
	}
	s.StepWords(s.inBuf, s.outBuf)
	out := make(map[string]uint64, len(s.outPorts))
	for i, p := range s.outPorts {
		out[p.Name] = s.outBuf[i]
	}
	return out
}

// StepWords runs one cycle with ports as word slices in InputPorts and
// OutputPorts order; out may be nil.
func (s *refSim) StepWords(in, out []uint64) {
	if out == nil {
		out = s.outBuf
	}
	for pi := range s.inPorts {
		w := in[pi]
		for i, net := range s.inPorts[pi].Bits {
			s.vals[net] = w>>uint(i)&1 == 1
		}
	}
	for _, c := range s.order {
		nv := s.eval(c)
		if nv != s.vals[c.Out] {
			s.Toggles++
		}
		s.vals[c.Out] = nv
	}
	for pi := range s.outPorts {
		var w uint64
		for i, net := range s.outPorts[pi].Bits {
			if s.vals[net] {
				w |= 1 << uint(i)
			}
		}
		out[pi] = w
	}
	// Rising edge: flops capture D.
	for i, d := range s.n.DFFs {
		s.next[i] = s.vals[d.In[0]]
	}
	for i, d := range s.n.DFFs {
		if s.vals[d.Out] != s.next[i] {
			s.Toggles++
		}
		s.vals[d.Out] = s.next[i]
	}
	if s.vcd != nil {
		for i := range s.vcdIn {
			s.vcdIn[i].Set(in[i])
		}
		for i := range s.vcdOut {
			s.vcdOut[i].Set(out[i])
		}
		s.vcd.Sample(s.Cycles)
	}
	s.Cycles++
}

func (s *refSim) eval(c Cell) bool {
	v := s.vals
	switch c.Kind {
	case INV:
		return !v[c.In[0]]
	case BUF:
		return v[c.In[0]]
	case NAND2:
		return !(v[c.In[0]] && v[c.In[1]])
	case NOR2:
		return !(v[c.In[0]] || v[c.In[1]])
	case AND2:
		return v[c.In[0]] && v[c.In[1]]
	case OR2:
		return v[c.In[0]] || v[c.In[1]]
	case XOR2:
		return v[c.In[0]] != v[c.In[1]]
	case XNOR2:
		return v[c.In[0]] == v[c.In[1]]
	case MUX2:
		if v[c.In[0]] {
			return v[c.In[1]]
		}
		return v[c.In[2]]
	case TIE0:
		return false
	case TIE1:
		return true
	default:
		panic(fmt.Sprintf("rtl: cannot evaluate %v", c.Kind))
	}
}
