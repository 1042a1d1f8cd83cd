package mc

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/lint"
)

// WriteTree renders the result in the indented component-tree format
// lint and ratecheck use: diagnostics first (path segments elided
// against the previous line), then the model and verdict sections, then
// the one-line summary. Output is byte-stable.
func (r *Result) WriteTree(w io.Writer) {
	r.Diags.WriteTree(w)
	fmt.Fprintf(w, "model: %d actor(s), %d channel(s), %d state bit(s), %d declared port(s), %d env endpoint(s)\n",
		r.Nodes, r.Edges, r.StateBits, r.DeclaredPorts, r.EnvEndpoints)
	fmt.Fprintf(w, "deadlock: %s (depth %d)\n", r.Deadlock.Verdict, r.Deadlock.Depth)
	fmt.Fprintf(w, "equivalence: %s (depth %d)\n", r.Equivalence.Verdict, r.Equivalence.Depth)
	for _, cx := range r.Counterexamples {
		// The trace projects onto the channels the violation implicates
		// (for MC-2, also everything feeding or fed by the diverging
		// actor); full per-edge occupancies live in the JSON dump.
		show := map[int]bool{}
		for ei := range r.model.Edges {
			name := r.model.Edges[ei].Name
			if name == cx.Channel {
				show[ei] = true
			}
			for _, c := range cx.Channels {
				if name == c {
					show[ei] = true
				}
			}
		}
		for u := range r.model.Nodes {
			if r.model.Nodes[u].Name != cx.Node {
				continue
			}
			for _, ei := range r.model.Nodes[u].In {
				show[ei] = true
			}
			for _, ei := range r.model.Nodes[u].Out {
				show[ei] = true
			}
		}
		switch cx.Rule {
		case "MC-1":
			fmt.Fprintf(w, "counterexample (%s): depth %d, circular wait %s via %s\n",
				cx.Property, cx.Depth, strings.Join(cx.Cycle, " -> "), strings.Join(cx.Channels, ", "))
		case "MC-2":
			fmt.Fprintf(w, "counterexample (%s): depth %d, %s starves %s\n",
				cx.Property, cx.Depth, cx.Node, cx.Channel)
		}
		for i, st := range cx.Steps {
			var fired []string
			env := 0
			for _, f := range st.Fired {
				if strings.HasPrefix(f, "env:") {
					env++
				} else {
					fired = append(fired, f)
				}
			}
			fstr := "-"
			if len(fired) > 0 {
				fstr = strings.Join(fired, ",")
			}
			if env > 0 {
				fstr += fmt.Sprintf(" (+%d env)", env)
			}
			var occ []string
			for ei, o := range st.Occ {
				if show[ei] {
					occ = append(occ, fmt.Sprintf("%s=%d", r.model.Edges[ei].Name, o))
				}
			}
			ostr := "-"
			if len(occ) > 0 {
				ostr = strings.Join(occ, " ")
			}
			fmt.Fprintf(w, "  cycle %d: fire %s; occ %s\n", i, fstr, ostr)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w, r.Summary())
}

// jsonDump is the machine-readable result, shaped like the lint and
// ratecheck dumps for tool symmetry. Struct fields only, no maps, so
// encoding/json emits deterministic bytes.
type jsonDump struct {
	Diagnostics     []lint.Diag       `json:"diagnostics"`
	Errors          int               `json:"errors"`
	Warnings        int               `json:"warnings"`
	Deadlock        PropertyResult    `json:"deadlock"`
	Equivalence     PropertyResult    `json:"equivalence"`
	Nodes           int               `json:"nodes"`
	Edges           int               `json:"edges"`
	StateBits       int               `json:"state_bits"`
	DeclaredPorts   int               `json:"declared_ports"`
	EnvEndpoints    int               `json:"env_endpoints"`
	States          int               `json:"states"`
	Steps           int               `json:"steps"`
	Counterexamples []*Counterexample `json:"counterexamples"`
	Notes           []string          `json:"notes"`
	Summary         string            `json:"summary"`
}

// WriteJSON writes the full result as canonical JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	d := jsonDump{
		Diagnostics:     r.Diags,
		Errors:          r.Errors(),
		Warnings:        r.Warnings(),
		Deadlock:        r.Deadlock,
		Equivalence:     r.Equivalence,
		Nodes:           r.Nodes,
		Edges:           r.Edges,
		StateBits:       r.StateBits,
		DeclaredPorts:   r.DeclaredPorts,
		EnvEndpoints:    r.EnvEndpoints,
		States:          r.States,
		Steps:           r.Steps,
		Counterexamples: r.Counterexamples,
		Notes:           r.Notes,
		Summary:         r.Summary(),
	}
	if d.Diagnostics == nil {
		d.Diagnostics = []lint.Diag{}
	}
	if d.Counterexamples == nil {
		d.Counterexamples = []*Counterexample{}
	}
	if d.Notes == nil {
		d.Notes = []string{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}
