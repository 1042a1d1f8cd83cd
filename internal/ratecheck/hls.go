package ratecheck

import (
	"fmt"

	"repro/internal/hls"
	"repro/internal/lint"
	"repro/internal/sim"
)

// CheckHLS validates a captured dataflow design's rate annotations — the
// front-end sibling of Check, gating the HLS flow the way lint.CheckHLS
// gates structure:
//
//	RATE-5  annotation names an unknown port, is non-positive, or
//	        duplicates an earlier annotation for the same port (error)
//
// Valid annotations become port-level throughput bounds: the pipelined
// schedules this flow produces initiate one firing per cycle (II = 1),
// so each annotated port is reported with its declared rate as the
// steady-state tokens-per-cycle bound.
func CheckHLS(d *hls.Design) *Result {
	r := &Result{}
	known := map[string]bool{}
	for _, ports := range [][]*hls.Op{d.Inputs, d.Outputs} {
		for _, p := range ports {
			known[p.Name] = true
		}
	}
	seen := map[string]bool{}
	for _, a := range d.Rates {
		switch {
		case !known[a.Port]:
			r.add(lint.Diag{
				Rule: "RATE-5", Severity: lint.SevError, Path: d.Name,
				Message: fmt.Sprintf("rate annotation names port %q, which the design does not declare", a.Port),
			})
			continue
		case a.Num <= 0 || a.Den <= 0:
			r.add(lint.Diag{
				Rule: "RATE-5", Severity: lint.SevError, Path: d.Name,
				Message: fmt.Sprintf("rate annotation for port %q is %d/%d; rates must be positive rationals", a.Port, a.Num, a.Den),
			})
			continue
		case seen[a.Port]:
			r.add(lint.Diag{
				Rule: "RATE-5", Severity: lint.SevError, Path: d.Name,
				Message: fmt.Sprintf("port %q carries two rate annotations", a.Port),
			})
			continue
		}
		seen[a.Port] = true
		r.RatedPorts++
		r.Channels = append(r.Channels, ChannelReport{
			Name:     d.Name + "." + a.Port,
			Capacity: 1, MinDepth: 1,
			Bound: sim.NewRat(a.Num, a.Den),
		})
	}
	r.Diags.Sort()
	return r
}
