package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/stats"
)

// VCD accumulates signal declarations and change events.
type VCD struct {
	w          io.Writer
	signals    []*Signal
	headerDone bool
	curTime    uint64
	timeOpen   bool
	err        error
	samples    uint64
	changes    uint64
}

// Signal is one traced wire or bus.
type Signal struct {
	name  string
	scope []string // enclosing module path under top; nil = top itself
	width int
	id    string
	cur   uint64
	valid bool // has been set at least once
	dirty bool
}

// NewVCD starts a dump with a 1ps timescale.
func NewVCD(w io.Writer) *VCD { return &VCD{w: w} }

// Declare registers a signal directly under the top scope, before the
// first Sample. Declaring after the header is written panics.
func (v *VCD) Declare(name string, width int) *Signal {
	return v.DeclareScoped(nil, name, width)
}

// DeclareScoped registers a signal nested inside a module hierarchy:
// each element of scope becomes one $scope module level under top, so
// signals from the same component path group together in waveform
// viewers instead of flattening into one namespace. Scope elements must
// not contain "/". Declaring after the header is written panics.
func (v *VCD) DeclareScoped(scope []string, name string, width int) *Signal {
	if v.headerDone {
		panic("trace: Declare after first Sample")
	}
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("trace: signal %s width %d", name, width))
	}
	for _, seg := range scope {
		if seg == "" || strings.Contains(seg, "/") {
			panic(fmt.Sprintf("trace: bad scope segment %q for signal %s", seg, name))
		}
	}
	s := &Signal{name: name, scope: append([]string(nil), scope...), width: width, id: idCode(len(v.signals))}
	v.signals = append(v.signals, s)
	return s
}

// Set updates a signal's value; the change is emitted at the next Sample.
func (s *Signal) Set(val uint64) {
	if s.width < 64 {
		val &= 1<<uint(s.width) - 1
	}
	if !s.valid || val != s.cur {
		s.cur = val
		s.dirty = true
		s.valid = true
	}
}

// Sample emits all pending changes at time t (monotonically increasing).
func (v *VCD) Sample(t uint64) {
	if v.err != nil {
		return
	}
	if !v.headerDone {
		v.writeHeader()
	}
	v.samples++
	for _, s := range v.signals {
		if !s.dirty {
			continue
		}
		v.changes++
		if !v.timeOpen || t != v.curTime {
			v.printf("#%d\n", t)
			v.curTime, v.timeOpen = t, true
		}
		if s.width == 1 {
			v.printf("%d%s\n", s.cur&1, s.id)
		} else {
			v.printf("b%s %s\n", bin(s.cur, s.width), s.id)
		}
		s.dirty = false
	}
}

// Err returns the first write error, if any.
func (v *VCD) Err() error { return v.err }

// Counts returns the number of Sample calls and value changes emitted so
// far — the dump's activity summary, reported by the CLI tools.
func (v *VCD) Counts() (samples, changes uint64) { return v.samples, v.changes }

// scopeNode is one module level of the header's $scope tree.
type scopeNode struct {
	children map[string]*scopeNode
	order    []string
	sigs     []*Signal
}

func newScopeNode() *scopeNode { return &scopeNode{children: map[string]*scopeNode{}} }

func (n *scopeNode) child(name string) *scopeNode {
	if c, ok := n.children[name]; ok {
		return c
	}
	c := newScopeNode()
	n.children[name] = c
	n.order = append(n.order, name)
	return c
}

func (v *VCD) writeHeader() {
	root := newScopeNode()
	for _, s := range v.signals {
		n := root
		for _, seg := range s.scope {
			n = n.child(seg)
		}
		n.sigs = append(n.sigs, s)
	}
	v.printf("$timescale 1ps $end\n$scope module top $end\n")
	v.writeScope(root)
	v.printf("$upscope $end\n$enddefinitions $end\n")
	v.headerDone = true
}

// writeScope emits a scope level: its signals sorted by name, then each
// child module (natural path order) as a nested $scope block.
func (v *VCD) writeScope(n *scopeNode) {
	sigs := append([]*Signal(nil), n.sigs...)
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].name < sigs[j].name })
	for _, s := range sigs {
		if s.width == 1 {
			v.printf("$var wire 1 %s %s $end\n", s.id, s.name)
		} else {
			v.printf("$var wire %d %s %s [%d:0] $end\n", s.width, s.id, s.name, s.width-1)
		}
	}
	kids := append([]string(nil), n.order...)
	sort.Slice(kids, func(i, j int) bool { return stats.PathLess(kids[i], kids[j]) })
	for _, name := range kids {
		v.printf("$scope module %s $end\n", name)
		v.writeScope(n.children[name])
		v.printf("$upscope $end\n")
	}
}

func (v *VCD) printf(format string, args ...any) {
	if v.err != nil {
		return
	}
	_, v.err = fmt.Fprintf(v.w, format, args...)
}

// idCode maps a signal index to a VCD identifier (printable, compact).
func idCode(i int) string {
	const base = 94 // '!' .. '~'
	var sb strings.Builder
	for {
		sb.WriteByte(byte('!' + i%base))
		i /= base
		if i == 0 {
			return sb.String()
		}
		i--
	}
}

func bin(v uint64, w int) string {
	b := make([]byte, w)
	for i := 0; i < w; i++ {
		if v>>uint(w-1-i)&1 == 1 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}
