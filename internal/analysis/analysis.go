// Package analysis is the one table of static analysis passes — the
// design-rule lint, the communication-rate check and the bounded model
// check — and the one canonical result body they share. Every surface
// that runs a pass (socsim -check, socd's job kinds, socctl's check
// subcommands) drives it through this table, so adding a pass is one
// entry here plus its fixtures in internal/soc.
package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"io"

	"repro/internal/lint"
	"repro/internal/mc"
	"repro/internal/ratecheck"
	"repro/internal/sim"
)

// Report is what every pass returns: a diagnostic list with its counts,
// a one-line summary, and the two renderings.
type Report interface {
	Summary() string
	Errors() int
	Warnings() int
	WriteTree(w io.Writer)
	WriteJSON(w io.Writer) error
}

// Options carries the knobs a run may set. Only passes with Depth set
// read them; the zero value selects each pass's defaults.
type Options struct {
	// Context, when set, bounds verify's search (see mc.Options).
	Context context.Context
	// Depth is the unrolling bound (0 selects mc.DefaultDepth).
	Depth int
	// Progress, when set, is called once per completed unroll depth.
	Progress func(depth, states int)
}

// Pass is one analysis pass. None simulates: each reads the design
// graph a build recorded in the simulator's side table.
type Pass struct {
	Name   string // the serve job kind and socsim -check name
	Design string // the design checked when none is named
	Depth  bool   // whether the pass reads Options.Depth
	Run    func(s *sim.Simulator, o Options) Report
}

// Passes is the pass table, in the order surfaces run and list them.
var Passes = []Pass{
	{Name: "lint", Design: "memcpy", Run: func(s *sim.Simulator, _ Options) Report {
		return lint.Check(s)
	}},
	{Name: "rateck", Design: "memcpy", Run: func(s *sim.Simulator, _ Options) Report {
		return ratecheck.Check(s)
	}},
	{Name: "verify", Design: "mcserdes", Depth: true, Run: func(s *sim.Simulator, o Options) Report {
		return mc.Check(s, mc.Options{Context: o.Context, Depth: o.Depth, Progress: o.Progress})
	}},
}

// Lookup finds a pass by name.
func Lookup(name string) (Pass, bool) {
	for _, p := range Passes {
		if p.Name == name {
			return p, true
		}
	}
	return Pass{}, false
}

// body is the canonical result body of every pass. encoding/json emits
// struct fields in declaration order, and no field holds a map, so the
// bytes depend only on the report. The pass-only fields are omitted
// when unset: verify alone fills depth and the two verdicts, and the
// report blob sits under "diagnostics" for lint and "report" otherwise.
type body struct {
	Kind        string          `json:"kind"`
	Design      string          `json:"design"`
	Mode        string          `json:"mode"`
	GALS        bool            `json:"gals"`
	Depth       int             `json:"depth,omitempty"`
	Deadlock    string          `json:"deadlock,omitempty"`
	Equivalence string          `json:"equivalence,omitempty"`
	Summary     string          `json:"summary"`
	Errors      int             `json:"errors"`
	Warnings    int             `json:"warnings"`
	Diagnostics json.RawMessage `json:"diagnostics,omitempty"`
	Report      json.RawMessage `json:"report,omitempty"`
}

// Body renders r, the report of this pass over design built in the
// given channel mode and clocking, as the canonical result body: the
// bytes socd caches and serves, and socsim -checkjson writes. depth is
// the bound the run used; passes without Depth ignore it.
func (p Pass) Body(design, mode string, gals bool, depth int, r Report) ([]byte, error) {
	var blob bytes.Buffer
	if err := r.WriteJSON(&blob); err != nil {
		return nil, err
	}
	b := body{
		Kind: p.Name, Design: design, Mode: mode, GALS: gals,
		Summary: r.Summary(), Errors: r.Errors(), Warnings: r.Warnings(),
	}
	raw := json.RawMessage(bytes.TrimRight(blob.Bytes(), "\n"))
	switch r := r.(type) {
	case *lint.Result:
		b.Diagnostics = raw
	case *mc.Result:
		b.Depth, b.Deadlock, b.Equivalence = depth, r.Deadlock.Verdict, r.Equivalence.Verdict
		b.Report = raw
	default:
		b.Report = raw
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", " ")
	if err := enc.Encode(b); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}
