// Package lint is the static design-rule checker: it elaborates the
// channel/clock graph a build recorded in the simulator's design side
// table (sim.Design) and reports CDC, deadlock, and connectivity hazards
// before any cycle is simulated. The paper's flow front-loads exactly
// this class of check — an unsynchronized clock-domain crossing or a
// zero-slack channel cycle is cheap to name at elaboration time and
// expensive to chase as a hung simulation.
//
// Rules:
//
//	CDC-1  channel endpoints on different clocks without a synchronizer (error)
//	CDC-2  synchronizer joining a clock domain to itself (warning)
//	DLK-1  cycle of zero-latency combinational/bypass channels (error)
//	DLK-2  zero-slack buffered channel cycle (warning)
//	CON-1  port declared with ownership but never bound (error)
//	CON-2  bound channel with exactly one owned endpoint, not terminated (warning)
//	CON-3  channel declared with capacity < 1 (error)
//	CON-4  two design objects claiming the same name (error)
//
// Ownership declarations (connections.In/Out.Owned) are opt-in, and every
// rule fires only on declared structure — raw testbench ports lint
// silently — so the checker never needs a whitelist to stay quiet on
// legitimate harness wiring.
package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Severity grades a diagnostic. Errors fail a lint-gated build; warnings
// are advisory (statically undecidable hazards like dateline rings).
type Severity int

// Severities, ordered so that the more severe compares greater.
const (
	SevWarning Severity = iota
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// MarshalJSON renders the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Diag is one structured diagnostic.
type Diag struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	Path     string   `json:"path"` // component/channel path the diagnostic anchors to
	Message  string   `json:"message"`
	Hint     string   `json:"hint,omitempty"`
	Channels []string `json:"channels,omitempty"` // channels implicated (DLK cycles)
}

// Diags is an ordered diagnostic list. Every checker's result embeds
// one (lint, ratecheck, mc), so their error and warning counts agree by
// construction.
type Diags []Diag

// Errors counts error-severity diagnostics.
func (ds Diags) Errors() int {
	n := 0
	for _, d := range ds {
		if d.Severity == SevError {
			n++
		}
	}
	return n
}

// Warnings counts warning-severity diagnostics.
func (ds Diags) Warnings() int { return len(ds) - ds.Errors() }

// Sort orders diagnostics severity-first (errors before warnings), then
// by path in the registry's natural order, then rule, then message —
// fully deterministic for golden tests.
func (ds Diags) Sort() {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].Severity != ds[j].Severity {
			return ds[i].Severity > ds[j].Severity
		}
		if ds[i].Path != ds[j].Path {
			return stats.PathLess(ds[i].Path, ds[j].Path)
		}
		if ds[i].Rule != ds[j].Rule {
			return ds[i].Rule < ds[j].Rule
		}
		return ds[i].Message < ds[j].Message
	})
}

// Result is the outcome of one lint pass.
type Result struct {
	Diags

	// What the elaborated design graph contained.
	Ports      int
	Channels   int
	Syncs      int
	Partitions int
}

func (r *Result) add(d Diag) { r.Diags = append(r.Diags, d) }

// Summary renders the one-line pass/fail overview.
func (r *Result) Summary() string {
	return fmt.Sprintf("lint: %d channels, %d ports, %d synchronizers, %d partitions: %d errors, %d warnings",
		r.Channels, r.Ports, r.Syncs, r.Partitions, r.Errors(), r.Warnings())
}

// Err returns nil when the result has no error-severity diagnostics, and
// otherwise an error naming the first one — the fail-fast hook for
// lint-gated runs.
func (r *Result) Err() error {
	for _, d := range r.Diags {
		if d.Severity == SevError {
			more := ""
			if n := r.Errors(); n > 1 {
				more = fmt.Sprintf(" (and %d more)", n-1)
			}
			return fmt.Errorf("lint: %s %s: %s%s", d.Rule, d.Path, d.Message, more)
		}
	}
	return nil
}

// Check elaborates the simulator's design graph and runs every rule
// pass. It never starts the simulation; a design that is built and
// linted but not run pays nothing beyond the construction-time appends.
func Check(s *sim.Simulator) *Result {
	d := s.Design()
	r := &Result{
		Ports:      len(d.Ports()),
		Channels:   len(d.Channels()),
		Syncs:      len(d.Syncs()),
		Partitions: len(d.Partitions()),
	}
	checkConnectivity(d, r)
	checkCDC(d, r)
	checkDeadlock(d, r)
	r.Diags.Sort()
	return r
}

// checkConnectivity runs CON-1 through CON-4.
func checkConnectivity(d *sim.Design, r *Result) {
	for _, p := range d.Ports() {
		if !p.Bound {
			r.add(Diag{
				Rule: "CON-1", Severity: SevError, Path: p.String(),
				Message: fmt.Sprintf("%s port declared by %s is never bound to a channel", p.Dir, p.Path),
				Hint:    "bind it with connections.Buffer/Pipeline/Bypass/Combinational, or drop the Owned declaration",
			})
		}
	}
	for _, c := range d.Channels() {
		if c.Capacity < 1 {
			r.add(Diag{
				Rule: "CON-3", Severity: SevError, Path: c.Name,
				Message: fmt.Sprintf("channel declared with capacity %d; the runtime clamps it to 1", c.Capacity),
			})
		}
		if c.Terminated {
			continue
		}
		switch {
		case c.Prod != nil && c.Cons == nil:
			r.add(Diag{
				Rule: "CON-2", Severity: SevWarning, Path: c.Name,
				Message: fmt.Sprintf("producer %s drives a channel whose consumer end is anonymous", c.Prod),
				Hint:    "pass connections.Terminator() if the stub is intentional, or declare the consumer with Owned",
			})
		case c.Cons != nil && c.Prod == nil:
			r.add(Diag{
				Rule: "CON-2", Severity: SevWarning, Path: c.Name,
				Message: fmt.Sprintf("consumer %s reads a channel whose producer end is anonymous", c.Cons),
				Hint:    "pass connections.Terminator() if the stub is intentional, or declare the producer with Owned",
			})
		}
	}
	for _, col := range d.Collisions() {
		r.add(Diag{
			Rule: "CON-4", Severity: SevError, Path: col.Name,
			Message: fmt.Sprintf("name claimed twice: first as %s, again as %s; the component registry merges equal paths silently", col.First, col.Second),
		})
	}
}

// checkCDC runs CDC-1 and CDC-2. A channel commits on exactly one clock,
// so any channel whose declared endpoints live on other clocks is an
// unsynchronized crossing: data would be sampled by a domain that shares
// no timing relationship with the writer. The only legal crossings are
// the registered synchronizer edges (gals FIFOs).
func checkCDC(d *sim.Design, r *Result) {
	for _, c := range d.Channels() {
		clocks := []*sim.Clock{c.Clock}
		seen := map[*sim.Clock]bool{c.Clock: true}
		for _, p := range []*sim.PortDecl{c.Prod, c.Cons} {
			if p != nil && !seen[p.Clock] {
				seen[p.Clock] = true
				clocks = append(clocks, p.Clock)
			}
		}
		if len(clocks) < 2 {
			continue
		}
		var ends []string
		if c.Prod != nil {
			ends = append(ends, fmt.Sprintf("producer %s on clock %s", c.Prod, c.Prod.Clock.Name()))
		}
		if c.Cons != nil {
			ends = append(ends, fmt.Sprintf("consumer %s on clock %s", c.Cons, c.Cons.Clock.Name()))
		}
		ends = append(ends, fmt.Sprintf("channel committed on clock %s", c.Clock.Name()))
		msg := "unsynchronized clock-domain crossing: " + strings.Join(ends, ", ")
		if pp, cp := partitionOf(d, c.Prod), partitionOf(d, c.Cons); pp != "" && cp != "" && pp != cp {
			msg += fmt.Sprintf(" (partitions %s and %s)", pp, cp)
		}
		r.add(Diag{
			Rule: "CDC-1", Severity: SevError, Path: c.Name,
			Message: msg,
			Hint:    "cross domains through gals.NewPausibleBisyncFIFO or gals.NewBruteForceSyncFIFO",
		})
	}
	for _, s := range d.Syncs() {
		if s.Prod == s.Cons {
			r.add(Diag{
				Rule: "CDC-2", Severity: SevWarning, Path: s.Name,
				Message: fmt.Sprintf("%s synchronizer joins clock %s to itself", s.Style, s.Prod.Name()),
				Hint:    "a same-domain FIFO costs crossing latency for nothing; use a connections.Buffer channel",
			})
		}
	}
}

// partitionOf returns the clock-region label covering a declared
// endpoint: the longest marked partition path that is the endpoint's
// component path or a hierarchical ancestor of it.
func partitionOf(d *sim.Design, p *sim.PortDecl) string {
	if p == nil {
		return ""
	}
	best := ""
	for _, part := range d.Partitions() {
		if part.Path == p.Path || strings.HasPrefix(p.Path, part.Path+"/") {
			if len(part.Path) > len(best) {
				best = part.Path
			}
		}
	}
	return best
}
