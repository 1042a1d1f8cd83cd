package lint

import (
	"fmt"

	"repro/internal/hls"
)

// CheckHLS lints a captured dataflow design before it enters the HLS
// flow — the front-end sibling of Check. The IR's SSA construction makes
// cycles impossible, so the rules here are the remaining front-end
// hazards:
//
//	HLS-1  the design fails structural validation (error)
//	HLS-2  an operation's result is never used and never output (warning)
//	HLS-3  two input or output ports share a name (error)
func CheckHLS(d *hls.Design) *Result {
	r := &Result{}
	if err := d.Validate(); err != nil {
		r.add(Diag{
			Rule: "HLS-1", Severity: SevError, Path: d.Name,
			Message: err.Error(),
		})
		// A design that fails validation may index out of its own op
		// list; stop before the structural passes trip over it.
		r.Diags.Sort()
		return r
	}
	used := make([]bool, len(d.Ops))
	for _, op := range d.Ops {
		for _, a := range op.Args {
			used[a.ID] = true
		}
	}
	for _, op := range d.Ops {
		if op.Kind == hls.OpOutput || used[op.ID] {
			continue
		}
		r.add(Diag{
			Rule: "HLS-2", Severity: SevWarning, Path: d.Name,
			Message: fmt.Sprintf("op %d (%v) computes a value no operation or output consumes", op.ID, op.Kind),
			Hint:    "dead logic still costs area and schedule slots; delete it or wire it to an output",
		})
	}
	for _, ports := range [][]*hls.Op{d.Inputs, d.Outputs} {
		seen := make(map[string]int)
		for _, p := range ports {
			if prev, ok := seen[p.Name]; ok {
				r.add(Diag{
					Rule: "HLS-3", Severity: SevError, Path: d.Name,
					Message: fmt.Sprintf("%v ports %d and %d both named %q", p.Kind, prev, p.ID, p.Name),
				})
				continue
			}
			seen[p.Name] = p.ID
		}
	}
	r.Diags.Sort()
	return r
}
