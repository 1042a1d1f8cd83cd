package soc

import (
	"context"
	"fmt"
	"io"
	"time" //detvet:ok Fig. 6 reports TLM and RTL-cosim wall time; it never feeds simulated state

	"repro/internal/connections"
	"repro/internal/exp"
	"repro/internal/stats"
)

// Fig6Row is one point of the paper's Figure 6: one SoC-level test run
// under the sim-accurate SystemC-style model and under RTL cosimulation.
type Fig6Row struct {
	Test        string
	TLMCycles   uint64
	RTLCycles   uint64
	TLMWall     time.Duration
	RTLWall     time.Duration
	Speedup     float64 // RTL wall / TLM wall
	CycleErrPct float64 // (RTL-TLM)/RTL elapsed-cycle difference

	// Metrics snapshots of every component path, for downstream
	// consumers like cmd/benchfig.
	TLMStats []stats.Metric
	RTLStats []stats.Metric
}

// fig6Run is one (test, mode) measurement inside the campaign.
type fig6Run struct {
	Cycles uint64
	Wall   time.Duration
}

// RunFig6Campaign runs the figure with one campaign job per (test, mode)
// pair — "<test>/tlm" and "<test>/rtl" — sharded over the runner's
// worker pool. Each job publishes its full component-tree metrics
// snapshot into the campaign summary. Rows come back in Tests() order;
// a failed run leaves zeros in its half of the row and is reported
// through the summary. Extra campaign options (exp.OnProgress,
// exp.WithContext, ...) are appended after the fixed ones; the job
// service uses them to stream per-run progress and to cancel the figure
// on graceful drain.
func RunFig6Campaign(maxCycles uint64, parallel int, extra ...exp.Option) ([]Fig6Row, *exp.Summary) {
	type modeCase struct {
		suffix string
		mode   connections.Mode
	}
	modes := []modeCase{
		{"tlm", connections.ModeSimAccurate},
		{"rtl", connections.ModeRTLCosim},
	}

	var jobs []exp.Job
	for _, tc := range Tests() {
		tc := tc
		for _, mc := range modes {
			mc := mc
			jobs = append(jobs, exp.Job{
				Name: tc.Name + "/" + mc.suffix,
				Run: func(c *exp.Ctx) (any, error) {
					cfg := DefaultConfig()
					cfg.Mode = mc.mode
					cfg.ShadowNetlists = true // full RTL-cosim cost in RTL mode
					cfg.StallSeed = c.Seed
					s, verify := tc.Build(cfg)
					defer context.AfterFunc(c.Context(), s.Sim.Stop)()
					start := time.Now()
					cycles, err := s.Run(maxCycles)
					wall := time.Since(start)
					if err != nil {
						return nil, fmt.Errorf("%s/%v: %w", tc.Name, mc.mode, err)
					}
					if err := verify(s); err != nil {
						return nil, err
					}
					c.Publish(s.Sim.Metrics())
					return fig6Run{Cycles: cycles, Wall: wall}, nil
				},
			})
		}
	}

	opts := append([]exp.Option{exp.Named("fig6"), exp.Parallel(parallel)}, extra...)
	s := exp.Run(jobs, opts...)
	var rows []Fig6Row
	for _, tc := range Tests() {
		row := Fig6Row{Test: tc.Name}
		if r, ok := s.Result(tc.Name + "/tlm"); ok && !r.Failed() {
			run := r.Value.(fig6Run)
			row.TLMCycles, row.TLMWall, row.TLMStats = run.Cycles, run.Wall, r.Stats
		}
		if r, ok := s.Result(tc.Name + "/rtl"); ok && !r.Failed() {
			run := r.Value.(fig6Run)
			row.RTLCycles, row.RTLWall, row.RTLStats = run.Cycles, run.Wall, r.Stats
		}
		if row.TLMWall > 0 && row.RTLCycles > 0 {
			row.Speedup = float64(row.RTLWall) / float64(row.TLMWall)
			row.CycleErrPct = 100 * (float64(row.RTLCycles) - float64(row.TLMCycles)) / float64(row.RTLCycles)
		}
		rows = append(rows, row)
	}
	return rows, s
}

// PrintFig6 renders the rows as the paper's figure data.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintf(w, "Figure 6: SoC-level tests, sim-accurate SystemC model vs RTL cosim\n")
	fmt.Fprintf(w, "%-10s %12s %12s %10s %12s %12s %9s\n",
		"test", "TLM cycles", "RTL cycles", "err %", "TLM wall", "RTL wall", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12d %12d %9.2f%% %12s %12s %8.1fx\n",
			r.Test, r.TLMCycles, r.RTLCycles, r.CycleErrPct, r.TLMWall.Round(time.Microsecond), r.RTLWall.Round(time.Microsecond), r.Speedup)
	}
}
