package rtl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// CellKind enumerates the standard cells of the technology library.
type CellKind int

// Standard cells.
const (
	INV CellKind = iota
	BUF
	NAND2
	NOR2
	AND2
	OR2
	XOR2
	XNOR2
	MUX2 // inputs: sel, a (sel=1), b (sel=0)
	DFF  // input: D; output: Q
	TIE0
	TIE1
	numCellKinds
)

var cellNames = [...]string{
	INV: "INV", BUF: "BUF", NAND2: "NAND2", NOR2: "NOR2", AND2: "AND2",
	OR2: "OR2", XOR2: "XOR2", XNOR2: "XNOR2", MUX2: "MUX2", DFF: "DFF",
	TIE0: "TIE0", TIE1: "TIE1",
}

func (k CellKind) String() string { return cellNames[k] }

// NumInputs returns the input count of a cell kind.
func (k CellKind) NumInputs() int {
	switch k {
	case INV, BUF, DFF:
		return 1
	case MUX2:
		return 3
	case TIE0, TIE1:
		return 0
	default:
		return 2
	}
}

// Net identifies a single-bit signal.
type Net int

// Cell is one standard-cell instance.
type Cell struct {
	Kind CellKind
	Out  Net
	In   []Net
}

// PortBit names one bit of a module port.
type PortBit struct {
	Name string // port name
	Bit  int    // bit index within the port
	Net  Net
}

// Netlist is a mapped gate-level module.
type Netlist struct {
	Name    string
	NumNets int
	Inputs  []PortBit
	Outputs []PortBit
	Cells   []Cell // combinational cells (every kind but DFF)
	DFFs    []Cell
}

// NewNet allocates a fresh net.
func (n *Netlist) NewNet() Net {
	id := Net(n.NumNets)
	n.NumNets++
	return id
}

// AddCell appends a combinational cell (or a DFF to the register bank)
// and returns its output net.
func (n *Netlist) AddCell(kind CellKind, in ...Net) Net {
	if len(in) != kind.NumInputs() {
		panic(fmt.Sprintf("rtl: %v expects %d inputs, got %d", kind, kind.NumInputs(), len(in)))
	}
	out := n.NewNet()
	c := Cell{Kind: kind, Out: out, In: in}
	if kind == DFF {
		n.DFFs = append(n.DFFs, c)
	} else {
		n.Cells = append(n.Cells, c)
	}
	return out
}

// CellCount returns combinational cell and flop counts.
func (n *Netlist) CellCount() (comb, flops int) { return len(n.Cells), len(n.DFFs) }

// LoopError reports a combinational cycle as the path of cells it runs
// through, each rendered as KIND#index(n<out>); the first entry repeats
// at the end to close the cycle.
type LoopError struct {
	Module string
	Path   []string
}

func (e *LoopError) Error() string {
	return fmt.Sprintf("rtl: combinational loop in %s: %s", e.Module, strings.Join(e.Path, " -> "))
}

func (n *Netlist) cellDesc(i int) string {
	c := n.Cells[i]
	return fmt.Sprintf("%v#%d(n%d)", c.Kind, i, c.Out)
}

// levelizeIndices returns the indices of n.Cells in topological order
// (every driver before its loads) using an iterative depth-first
// worklist, so arbitrarily deep netlists cannot overflow the goroutine
// stack the way the former recursive walk could.
func (n *Netlist) levelizeIndices() ([]int, *LoopError) {
	driver := make(map[Net]int, len(n.Cells)) // net -> cell index
	for i, c := range n.Cells {
		driver[c.Out] = i
	}
	order := make([]int, 0, len(n.Cells))
	state := make([]int8, len(n.Cells)) // 0 unvisited, 1 visiting, 2 done
	type frame struct {
		cell int
		next int // next input index to explore
	}
	var stack []frame
	for root := range n.Cells {
		if state[root] != 0 {
			continue
		}
		state[root] = 1
		stack = append(stack[:0], frame{cell: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(n.Cells[f.cell].In) {
				in := n.Cells[f.cell].In[f.next]
				f.next++
				j, ok := driver[in]
				if !ok {
					continue // source: input port, DFF output, or floating net
				}
				switch state[j] {
				case 0:
					state[j] = 1
					stack = append(stack, frame{cell: j})
				case 1:
					// j is on the stack: the cycle runs from its frame to
					// the top and back.
					start := 0
					for k := range stack {
						if stack[k].cell == j {
							start = k
							break
						}
					}
					path := make([]string, 0, len(stack)-start+1)
					for _, fr := range stack[start:] {
						path = append(path, n.cellDesc(fr.cell))
					}
					path = append(path, n.cellDesc(j))
					return nil, &LoopError{Module: n.Name, Path: path}
				}
			} else {
				state[f.cell] = 2
				order = append(order, f.cell)
				stack = stack[:len(stack)-1]
			}
		}
	}
	return order, nil
}

// LevelizeChecked returns the combinational cells in topological order:
// a cell appears after every cell driving one of its inputs. DFF
// outputs, tie cells and input ports are sources. A combinational loop
// is reported as a *LoopError naming the cycle path.
func (n *Netlist) LevelizeChecked() ([]Cell, error) {
	idx, lerr := n.levelizeIndices()
	if lerr != nil {
		return nil, lerr
	}
	order := make([]Cell, len(idx))
	for i, j := range idx {
		order[i] = n.Cells[j]
	}
	return order, nil
}

// Levelize is LevelizeChecked for call sites that treat a loop as a
// programming error: it panics with the *LoopError.
func (n *Netlist) Levelize() []Cell {
	order, err := n.LevelizeChecked()
	if err != nil {
		panic(err)
	}
	return order
}

// Port describes one named port of a simulated netlist: Bits[i] is the
// net behind bit i. Ports returned by the Simulator are sorted by name,
// the order of the StepWords word slices and of VCD declarations.
type Port struct {
	Name string
	Bits []Net
}

// PortCoverageError reports a port whose bit vector cannot be simulated:
// a bit with no net, two PortBits claiming the same bit, a net outside
// the netlist, or a port wider than the 64-bit word the simulator packs
// it into.
type PortCoverageError struct {
	Module string
	Dir    string // "input" or "output"
	Port   string
	Bit    int
	Width  int
	Reason string
}

func (e *PortCoverageError) Error() string {
	return fmt.Sprintf("rtl: %s: %s port %s[%d] of width %d: %s",
		e.Module, e.Dir, e.Port, e.Bit, e.Width, e.Reason)
}

// collectPorts groups PortBits into name-sorted Ports, validating full
// bit coverage so a sparse port surfaces as an error at construction
// instead of a negative-index panic mid-Step.
func collectPorts(n *Netlist, ports []PortBit, dir string) ([]Port, error) {
	var names []string
	width := map[string]int{}
	for _, p := range ports {
		if _, ok := width[p.Name]; !ok {
			names = append(names, p.Name)
		}
		if p.Bit+1 > width[p.Name] {
			width[p.Name] = p.Bit + 1
		}
	}
	sort.Strings(names)
	out := make([]Port, 0, len(names))
	for _, name := range names {
		w := width[name]
		perr := func(bit int, reason string) error {
			return &PortCoverageError{Module: n.Name, Dir: dir, Port: name, Bit: bit, Width: w, Reason: reason}
		}
		if w > 64 {
			return nil, perr(w-1, "wider than the 64-bit simulator word")
		}
		bits := make([]Net, w)
		for i := range bits {
			bits[i] = -1
		}
		for _, p := range ports {
			if p.Name != name {
				continue
			}
			if p.Bit < 0 {
				return nil, perr(p.Bit, "negative bit index")
			}
			if bits[p.Bit] != -1 {
				return nil, perr(p.Bit, "bit bound to two nets")
			}
			if p.Net < 0 || int(p.Net) >= n.NumNets {
				return nil, perr(p.Bit, fmt.Sprintf("net n%d outside the netlist", p.Net))
			}
			bits[p.Bit] = p.Net
		}
		for i, net := range bits {
			if net == -1 {
				return nil, perr(i, "bit has no net (sparse port)")
			}
		}
		out = append(out, Port{Name: name, Bits: bits})
	}
	return out, nil
}

// validateCells rejects netlists the evaluator cannot execute safely:
// out-of-range nets, wrong arity, or register cells filed on the wrong
// bank.
func validateCells(n *Netlist) error {
	check := func(c Cell, i int, bank string) error {
		if c.Kind < 0 || c.Kind >= numCellKinds {
			return fmt.Errorf("rtl: %s: %s cell %d has unknown kind %d", n.Name, bank, i, int(c.Kind))
		}
		if len(c.In) != c.Kind.NumInputs() {
			return fmt.Errorf("rtl: %s: %s cell %d (%v) has %d inputs, want %d",
				n.Name, bank, i, c.Kind, len(c.In), c.Kind.NumInputs())
		}
		nets := append([]Net{c.Out}, c.In...)
		for _, net := range nets {
			if net < 0 || int(net) >= n.NumNets {
				return fmt.Errorf("rtl: %s: %s cell %d (%v) references net n%d outside the netlist",
					n.Name, bank, i, c.Kind, net)
			}
		}
		return nil
	}
	for i, c := range n.Cells {
		if c.Kind == DFF {
			return fmt.Errorf("rtl: %s: cell %d is a DFF outside the register bank", n.Name, i)
		}
		if err := check(c, i, "comb"); err != nil {
			return err
		}
	}
	for i, c := range n.DFFs {
		if c.Kind != DFF {
			return fmt.Errorf("rtl: %s: register bank cell %d is a %v, not a DFF", n.Name, i, c.Kind)
		}
		if err := check(c, i, "dff"); err != nil {
			return err
		}
	}
	return nil
}

// Simulator evaluates a netlist cycle by cycle on the compiled
// word-level program (see compile.go).
type Simulator struct {
	inPorts  []Port // sorted by name
	outPorts []Port
	prog     *program

	// Toggles counts driven-net transitions per cycle, the switching
	// activity consumed by the power model.
	Toggles uint64
	Cycles  uint64

	inBuf, outBuf []uint64 // scratch for the map-based Step

	vcd    *trace.VCD
	vcdIn  []*trace.Signal // parallel to inPorts
	vcdOut []*trace.Signal // parallel to outPorts
}

// NewSimulator validates, levelizes and compiles the netlist. It
// returns a *PortCoverageError for sparse or malformed ports, a
// *LoopError for combinational cycles, and an error naming the net for
// shapes the compiler refuses: a net with two drivers, or an input-port
// bit aliased onto a driven net.
func NewSimulator(n *Netlist) (*Simulator, error) {
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
	prog, err := compile(n, order, inPorts, outPorts)
	if err != nil {
		return nil, err
	}
	return &Simulator{
		inPorts:  inPorts,
		outPorts: outPorts,
		prog:     prog,
		inBuf:    make([]uint64, len(inPorts)),
		outBuf:   make([]uint64, len(outPorts)),
	}, nil
}

// Deprecated: Backend, BackendCompiled and NewSimulatorBackend remain
// for the benchmark module's rtl probe. There is one evaluator: call
// NewSimulator.
type Backend int

// Deprecated: call NewSimulator.
const BackendCompiled Backend = 0

// Deprecated: NewSimulatorBackend is NewSimulator.
func NewSimulatorBackend(n *Netlist, _ Backend) (*Simulator, error) { return NewSimulator(n) }

// InputPorts returns the input ports in StepWords order (sorted by name).
func (s *Simulator) InputPorts() []Port { return s.inPorts }

// OutputPorts returns the output ports in StepWords order (sorted by name).
func (s *Simulator) OutputPorts() []Port { return s.outPorts }

// AttachVCD declares the netlist's ports on v and samples them after
// every Step. Declaration order is the sorted port order (inputs first,
// then outputs), so VCD bytes are identical run to run. Call before the
// first Step.
func (s *Simulator) AttachVCD(v *trace.VCD) {
	s.vcd = v
	s.vcdIn = s.vcdIn[:0]
	s.vcdOut = s.vcdOut[:0]
	for _, p := range s.inPorts {
		s.vcdIn = append(s.vcdIn, v.Declare(p.Name, len(p.Bits)))
	}
	for _, p := range s.outPorts {
		s.vcdOut = append(s.vcdOut, v.Declare(p.Name+"_o", len(p.Bits)))
	}
}

// StepWords is the allocation-free hot path: one cycle with ports passed
// as word slices in InputPorts/OutputPorts order. out may be nil when
// the caller only wants state advanced (activity counting); otherwise it
// must have len(OutputPorts()) and is filled with the settled outputs.
func (s *Simulator) StepWords(in, out []uint64) {
	if out == nil {
		out = s.outBuf
	}
	s.Toggles += s.prog.step(in, out)
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

// Step applies the input words by port name, settles combinational
// logic, captures the outputs, and clocks the flops — one cycle. Ports
// absent from inputs read as zero.
func (s *Simulator) Step(inputs map[string]uint64) map[string]uint64 {
	for i := range s.inPorts {
		s.inBuf[i] = inputs[s.inPorts[i].Name]
	}
	s.StepWords(s.inBuf, s.outBuf)
	out := make(map[string]uint64, len(s.outPorts))
	for i := range s.outPorts {
		out[s.outPorts[i].Name] = s.outBuf[i]
	}
	return out
}

// Verilog renders the netlist as structural Verilog-2001.
func (n *Netlist) Verilog() string {
	var sb strings.Builder
	portNames := map[string]bool{}
	var ports []string
	widths := map[string]int{}
	dir := map[string]string{}
	for _, p := range n.Inputs {
		if !portNames[p.Name] {
			portNames[p.Name] = true
			ports = append(ports, p.Name)
			dir[p.Name] = "input"
		}
		if p.Bit+1 > widths[p.Name] {
			widths[p.Name] = p.Bit + 1
		}
	}
	for _, p := range n.Outputs {
		if !portNames[p.Name] {
			portNames[p.Name] = true
			ports = append(ports, p.Name)
			dir[p.Name] = "output"
		}
		if p.Bit+1 > widths[p.Name] {
			widths[p.Name] = p.Bit + 1
		}
	}
	sort.Strings(ports)
	fmt.Fprintf(&sb, "module %s(clk, %s);\n", n.Name, strings.Join(ports, ", "))
	sb.WriteString("  input clk;\n")
	for _, p := range ports {
		if widths[p] > 1 {
			fmt.Fprintf(&sb, "  %s [%d:0] %s;\n", dir[p], widths[p]-1, p)
		} else {
			fmt.Fprintf(&sb, "  %s %s;\n", dir[p], p)
		}
	}
	fmt.Fprintf(&sb, "  wire [%d:0] n;\n", n.NumNets-1)
	for _, p := range n.Inputs {
		fmt.Fprintf(&sb, "  assign n[%d] = %s[%d];\n", p.Net, p.Name, p.Bit)
	}
	for i, c := range n.Cells {
		switch c.Kind {
		case TIE0:
			fmt.Fprintf(&sb, "  assign n[%d] = 1'b0;\n", c.Out)
		case TIE1:
			fmt.Fprintf(&sb, "  assign n[%d] = 1'b1;\n", c.Out)
		case INV:
			fmt.Fprintf(&sb, "  not g%d(n[%d], n[%d]);\n", i, c.Out, c.In[0])
		case BUF:
			fmt.Fprintf(&sb, "  buf g%d(n[%d], n[%d]);\n", i, c.Out, c.In[0])
		case NAND2:
			fmt.Fprintf(&sb, "  nand g%d(n[%d], n[%d], n[%d]);\n", i, c.Out, c.In[0], c.In[1])
		case NOR2:
			fmt.Fprintf(&sb, "  nor g%d(n[%d], n[%d], n[%d]);\n", i, c.Out, c.In[0], c.In[1])
		case AND2:
			fmt.Fprintf(&sb, "  and g%d(n[%d], n[%d], n[%d]);\n", i, c.Out, c.In[0], c.In[1])
		case OR2:
			fmt.Fprintf(&sb, "  or g%d(n[%d], n[%d], n[%d]);\n", i, c.Out, c.In[0], c.In[1])
		case XOR2:
			fmt.Fprintf(&sb, "  xor g%d(n[%d], n[%d], n[%d]);\n", i, c.Out, c.In[0], c.In[1])
		case XNOR2:
			fmt.Fprintf(&sb, "  xnor g%d(n[%d], n[%d], n[%d]);\n", i, c.Out, c.In[0], c.In[1])
		case MUX2:
			fmt.Fprintf(&sb, "  assign n[%d] = n[%d] ? n[%d] : n[%d];\n", c.Out, c.In[0], c.In[1], c.In[2])
		}
	}
	if len(n.DFFs) > 0 {
		// Flop outputs live in a separate reg vector bridged onto the
		// wire vector, keeping the netlist pure structural Verilog.
		fmt.Fprintf(&sb, "  reg [%d:0] r;\n", len(n.DFFs)-1)
		var regs []string
		for i, d := range n.DFFs {
			fmt.Fprintf(&sb, "  assign n[%d] = r[%d];\n", d.Out, i)
			regs = append(regs, fmt.Sprintf("r[%d] <= n[%d];", i, d.In[0]))
		}
		fmt.Fprintf(&sb, "  always @(posedge clk) begin %s end\n", strings.Join(regs, " "))
	}
	for _, p := range n.Outputs {
		fmt.Fprintf(&sb, "  assign %s[%d] = n[%d];\n", p.Name, p.Bit, p.Net)
	}
	sb.WriteString("endmodule\n")
	return sb.String()
}
