package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteTree renders the diagnostics in the same indented component-tree
// format `socsim -stats` uses, followed by the one-line summary.
func (r *Result) WriteTree(w io.Writer) {
	r.Diags.WriteTree(w)
	fmt.Fprintln(w, r.Summary())
}

// WriteTree renders the diagnostics alone in the indented
// component-tree format: each diagnostic's path is split into hierarchy
// segments, segments shared with the previous line are elided, and the
// diagnostic itself appears as a leaf "RULE severity = message" line
// with its hint nested underneath. Every checker's report opens with it.
func (ds Diags) WriteTree(w io.Writer) {
	var prev []string
	for _, d := range ds {
		segs := strings.Split(d.Path, "/")
		if d.Path == "" {
			segs = nil
		}
		common := 0
		for common < len(segs) && common < len(prev) && segs[common] == prev[common] {
			common++
		}
		for i := common; i < len(segs); i++ {
			fmt.Fprintf(w, "%s%s\n", strings.Repeat("  ", i), segs[i])
		}
		prev = segs
		indent := strings.Repeat("  ", len(segs))
		fmt.Fprintf(w, "%s%s %s = %s\n", indent, d.Rule, d.Severity, d.Message)
		if d.Hint != "" {
			fmt.Fprintf(w, "%s  hint: %s\n", indent, d.Hint)
		}
	}
}

// jsonDump is the machine-readable diagnostic dump, shaped like the
// stats dump ({"metrics":[...]}) for tool symmetry.
type jsonDump struct {
	Diagnostics []Diag `json:"diagnostics"`
	Errors      int    `json:"errors"`
	Warnings    int    `json:"warnings"`
}

// WriteJSON writes the result's diagnostics as
// {"diagnostics":[...],"errors":N,"warnings":N}.
func (r *Result) WriteJSON(w io.Writer) error {
	d := jsonDump{Diagnostics: r.Diags, Errors: r.Errors(), Warnings: r.Warnings()}
	if d.Diagnostics == nil {
		d.Diagnostics = []Diag{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}
