package ratecheck

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/lint"
	"repro/internal/sim"
)

// WriteTree renders the result in the indented component-tree format the
// lint pass uses: diagnostics first (path segments elided against the
// previous line), then the bounds sections, then the one-line summary.
// The output is byte-stable: every number is an exact rational.
func (r *Result) WriteTree(w io.Writer) {
	r.Diags.WriteTree(w)
	if len(r.Channels) > 0 {
		fmt.Fprintln(w, "channels:")
		for _, c := range r.Channels {
			fmt.Fprintf(w, "  %s: cap %d (min %d), <= %s tok/cycle on %s\n",
				c.Name, c.Capacity, c.MinDepth, c.Bound, c.Clock)
		}
	}
	if len(r.Domains) > 0 {
		fmt.Fprintln(w, "domains:")
		for _, d := range r.Domains {
			fmt.Fprintf(w, "  %s (%d ps): %d channels, <= %s tok/cycle (<= %s tok/ns)\n",
				d.Clock, d.PeriodPS, d.Channels, d.Bound, d.BoundNS)
		}
	}
	if len(r.Crossings) > 0 {
		fmt.Fprintln(w, "crossings:")
		for _, c := range r.Crossings {
			fmt.Fprintf(w, "  %s: %s %s -> %s, depth %d (min %d), <= %s tok/ns\n",
				c.Name, c.Style, c.Prod, c.Cons, c.Depth, c.MinDepth, c.BoundNS)
		}
	}
	if r.EndToEnd != nil {
		fmt.Fprintf(w, "end-to-end: <= %s tok/ns through %d crossings\n", *r.EndToEnd, len(r.Crossings))
	}
	fmt.Fprintln(w, r.Summary())
}

// jsonDump is the machine-readable result, shaped like the lint dump
// ({"diagnostics":[...],...}) for tool symmetry. Struct fields only, no
// maps, so encoding/json emits deterministic bytes.
type jsonDump struct {
	Diagnostics []lint.Diag      `json:"diagnostics"`
	Errors      int              `json:"errors"`
	Warnings    int              `json:"warnings"`
	Channels    []ChannelReport  `json:"channels"`
	Domains     []DomainReport   `json:"domains"`
	Crossings   []CrossingReport `json:"crossings"`
	EndToEnd    *sim.Rat         `json:"end_to_end,omitempty"`
	Summary     string           `json:"summary"`
}

// WriteJSON writes the full result as canonical JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	d := jsonDump{
		Diagnostics: r.Diags,
		Errors:      r.Errors(),
		Warnings:    r.Warnings(),
		Channels:    r.Channels,
		Domains:     r.Domains,
		Crossings:   r.Crossings,
		EndToEnd:    r.EndToEnd,
		Summary:     r.Summary(),
	}
	if d.Diagnostics == nil {
		d.Diagnostics = []lint.Diag{}
	}
	if d.Channels == nil {
		d.Channels = []ChannelReport{}
	}
	if d.Domains == nil {
		d.Domains = []DomainReport{}
	}
	if d.Crossings == nil {
		d.Crossings = []CrossingReport{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}
