package core

import (
	"fmt"
	"io"

	"repro/internal/hls"
	"repro/internal/synth"
)

// QoRRow compares the flow's mapped gate count against a hand-optimized
// RTL reference for one design — the experiment behind the paper's §2.2
// claim that HLS with appropriate codings lands within ±10% of
// hand-written RTL, and that naive codings do not.
type QoRRow struct {
	Design    string
	HLSGates  int
	HandGates int
	DeltaPct  float64 // (HLS - hand) / hand
	Tuned     bool    // MatchLib-style coding (expected within ±10%)
}

// Hand-optimized reference gate counts in NAND2 equivalents. These are
// textbook structural-RTL figures for the same generic library: ripple
// FA = 8.3/bit, subtractor 9.1/bit, truncated array multiplier 4.3/bit²,
// 2:1 mux 2.25/bit, magnitude comparator 6.8/bit.
func handAdd(w int) float64 { return 8.3 * float64(w) }
func handSub(w int) float64 { return 9.1 * float64(w) }
func handMul(w int) float64 { return 4.3 * float64(w) * float64(w) }
func handMux(w int) float64 { return 2.25 * float64(w) }
func handCmp(w int) float64 { return 6.8 * float64(w) }

// QoRTable runs the datapath-module comparison. Tuned rows use the
// efficient codings MatchLib encapsulates; the naive rows (src-loop
// crossbar, bit-by-bit popcount) show what happens without them.
func QoRTable(f *Flow) ([]QoRRow, error) {
	type entry struct {
		d     *hls.Design
		hand  float64
		tuned bool
	}
	entries := []entry{
		{hls.MACDesign(32), handMul(32) + handAdd(32), true},
		{hls.FIRDesign(8, 16), 8*handMul(16) + 7*handAdd(16), true},
		{hls.AdderTreeDesign(16, 32), 15 * handAdd(32), true},
		{hls.ALUDesign(32), handAdd(32) + handSub(32) + 3*1.25*32 + 0.75*32 + 7*handMux(32), true},
		{hls.MaxTreeDesign(8, 32), 7 * (handCmp(32) + handMux(32)), true},
		{hls.CrossbarDstLoopDesign(16, 32), 16 * 15 * handMux(32), true},
		// Naive codings, measured against the SAME hand references:
		{hls.CrossbarSrcLoopDesign(16, 32), 16 * 15 * handMux(32), false},
		{hls.PopcountDesign(32), handAdd(32) /* FA compressor tree */, false},
	}
	var rows []QoRRow
	for _, e := range entries {
		rep, err := f.Run(e.d, 8, 77)
		if err != nil {
			return nil, err
		}
		row := QoRRow{
			Design:    e.d.Name,
			HLSGates:  rep.Area.GateCount,
			HandGates: int(e.hand + 0.5),
			Tuned:     e.tuned,
		}
		row.DeltaPct = 100 * (float64(row.HLSGates) - e.hand) / e.hand
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintQoRTable renders the §2.2 table.
func PrintQoRTable(w io.Writer, rows []QoRRow) {
	fmt.Fprintln(w, "HLS vs hand-optimized RTL, mapped NAND2-equivalent gates (paper §2.2: ±10% with MatchLib codings)")
	fmt.Fprintf(w, "%-18s %10s %10s %8s  %s\n", "design", "HLS", "hand", "delta", "coding")
	for _, r := range rows {
		style := "MatchLib-tuned"
		if !r.Tuned {
			style = "naive"
		}
		fmt.Fprintf(w, "%-18s %10d %10d %+7.1f%%  %s\n", r.Design, r.HLSGates, r.HandGates, r.DeltaPct, style)
	}
}

// XbarSweepRow is one point of the §2.4 crossbar case study: src-loop vs
// dst-loop area and scheduling effort as the lane count grows.
type XbarSweepRow struct {
	Lanes        int
	SrcGates     int
	DstGates     int
	PenaltyPct   float64
	SrcSchedWork int
	DstSchedWork int
}

// XbarSweep measures the crossbar codings across sizes with the given
// data width.
func XbarSweep(f *Flow, lanes []int, width int) ([]XbarSweepRow, error) {
	var rows []XbarSweepRow
	for _, n := range lanes {
		srcS, srcNl := synth.Compile(hls.CrossbarSrcLoopDesign(n, width), f.Cons)
		dstS, dstNl := synth.Compile(hls.CrossbarDstLoopDesign(n, width), f.Cons)
		srcA := synth.Report(srcNl, f.Lib)
		dstA := synth.Report(dstNl, f.Lib)
		rows = append(rows, XbarSweepRow{
			Lanes:        n,
			SrcGates:     srcA.GateCount,
			DstGates:     dstA.GateCount,
			PenaltyPct:   100 * (srcA.Total - dstA.Total) / dstA.Total,
			SrcSchedWork: srcS.Steps,
			DstSchedWork: dstS.Steps,
		})
	}
	return rows, nil
}

// PrintXbarSweep renders the §2.4 case-study sweep.
func PrintXbarSweep(w io.Writer, rows []XbarSweepRow) {
	fmt.Fprintln(w, "Crossbar case study (§2.4): src-loop vs dst-loop coding through HLS + synthesis")
	fmt.Fprintf(w, "%-6s %12s %12s %9s %12s %12s\n", "lanes", "src gates", "dst gates", "penalty", "src sched", "dst sched")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %12d %12d %8.1f%% %12d %12d\n",
			r.Lanes, r.SrcGates, r.DstGates, r.PenaltyPct, r.SrcSchedWork, r.DstSchedWork)
	}
}
