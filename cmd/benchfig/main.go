// Command benchfig regenerates every table and figure of the paper's
// evaluation from the simulation substrate:
//
//	benchfig -fig3       cycles/transaction, arbitrated crossbar (Figure 3)
//	benchfig -fig6       SoC tests, TLM vs RTL cosim (Figure 6)
//	benchfig -qor        HLS vs hand RTL ±10% table (§2.2)
//	benchfig -xbar       src-loop vs dst-loop crossbar sweep (§2.4)
//	benchfig -gals       pausible clocking latency + area overhead (§3.1)
//	benchfig -backend    floorplan, clocking, 12-hour turnaround (§3, §4)
//	benchfig -prod       gates/engineer-day estimate (§4)
//	benchfig -noc        NoC load-latency characterization
//	benchfig -stallhunt  §2.3 multi-seed stall-injection bug hunt
//	benchfig -all        everything
//
// Experiment sections run on the internal/exp campaign runner:
// -parallel N shards each campaign's jobs over N workers, -seed picks
// the campaign seed every per-job stream is derived from, and
// -json FILE writes the merged campaign metrics (including per-job
// stats snapshots) as a stats JSON dump. Output is byte-identical for
// any -parallel value at the same -seed, wall-time columns aside.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gals"
	"repro/internal/matchlib"
	"repro/internal/noc"
	"repro/internal/soc"
	"repro/internal/stats"
	"repro/internal/verif"
)

func main() {
	fig3 := flag.Bool("fig3", false, "Figure 3: crossbar cycles/transaction")
	fig6 := flag.Bool("fig6", false, "Figure 6: SoC TLM vs RTL cosim")
	qor := flag.Bool("qor", false, "§2.2 HLS vs hand-RTL QoR table")
	xbar := flag.Bool("xbar", false, "§2.4 crossbar coding sweep")
	galsF := flag.Bool("gals", false, "§3.1 GALS clocking results")
	backend := flag.Bool("backend", false, "§3/§4 back-end reports")
	prod := flag.Bool("prod", false, "§4 productivity estimate")
	nocF := flag.Bool("noc", false, "NoC load-latency characterization")
	stallhunt := flag.Bool("stallhunt", false, "§2.3 multi-seed stall-injection hunt")
	all := flag.Bool("all", false, "run everything")
	parallel := flag.Int("parallel", 1, "campaign worker-pool size")
	seed := flag.Int64("seed", 7, "campaign seed (per-job seeds derive from it)")
	jsonOut := flag.String("json", "", "write merged campaign metrics JSON to `file`")
	vcdOnFail := flag.String("vcd-on-fail", "", "on a stall-hunt failure, re-run the first failing seed traced and write its channel waveforms to `file`")
	flag.Parse()

	if !(*fig3 || *fig6 || *qor || *xbar || *galsF || *backend || *prod || *nocF || *stallhunt || *all) {
		flag.Usage()
		os.Exit(2)
	}
	flow := core.DefaultFlow()

	var merged []stats.Metric
	collect := func(s *exp.Summary) {
		merged = append(merged, s.Metrics()...)
		for _, f := range s.Failures() {
			fmt.Fprintf(os.Stderr, "benchfig: %s/%s failed: %v\n", s.Name, f.Name, f.Err)
		}
	}

	if *all || *fig3 {
		rows, sum := matchlib.RunFig3Campaign([]int{2, 4, 8, 16}, 300, *seed, *parallel)
		collect(sum)
		matchlib.PrintFig3(os.Stdout, rows)
		fmt.Println()
	}
	if *all || *qor {
		rows, err := core.QoRTable(flow)
		check(err)
		core.PrintQoRTable(os.Stdout, rows)
		fmt.Println()
	}
	if *all || *xbar {
		rows, err := core.XbarSweep(flow, []int{4, 8, 16, 32}, 32)
		check(err)
		core.PrintXbarSweep(os.Stdout, rows)
		fmt.Println()
	}
	if *all || *galsF {
		fmt.Println("Fine-grained GALS (§3.1)")
		pts, sum := gals.MarginSweep(900, []float64{0.05, 0.10, 0.15}, 5_000_000, *seed, *parallel)
		collect(sum)
		for _, p := range pts {
			fmt.Printf("  adaptive clock generator at %2.0f%% droop: fixed %.1f MHz vs adaptive %.1f MHz (+%.1f%% margin recovered)\n",
				100*p.Droop, p.FixedMHz, p.AdaptiveMHz, p.GainPct)
		}
		for _, g := range []int{100_000, 300_000, 500_000, 1_000_000, 2_000_000} {
			o := gals.GALSOverhead(g, 2)
			fmt.Printf("  %v\n", o)
		}
		const year = 365.25 * 24 * 3600
		fmt.Printf("  brute-force 2-flop synchronizer MTBF at 1.1 GHz: %.3g years (pausible: error-free by construction)\n",
			gals.SyncMTBF(2, 909, 3636)/year)
		fmt.Println()
	}
	if *all || *backend {
		core.PrintBackendReport(os.Stdout, flow)
		fmt.Println()
	}
	if *all || *prod {
		rows, err := core.ProductivityTable(flow)
		check(err)
		core.PrintProductivity(os.Stdout, rows)
		fmt.Println()
	}
	if *all || *nocF {
		pts, sum := noc.LoadLatencyCampaign(4, 4, []float64{0.02, 0.05, 0.10, 0.20, 0.40, 0.60}, 4000, 2, *seed, *parallel)
		collect(sum)
		noc.PrintLoadLatency(os.Stdout, 4, 4, pts)
		fmt.Println()
	}
	if *all || *stallhunt {
		agg, sum := verif.RunStallHuntCampaign(0.30, 200, 8, *seed, *parallel)
		collect(sum)
		fmt.Println("Stall-injection bug hunt (§2.3), 8 stall seeds at p=0.30")
		fmt.Printf("  bug exposed by %d/%d seeds (buggy corner reached by %d)\n",
			agg.BugSeeds, len(agg.Results), agg.CornerSeeds)
		fmt.Printf("  best timing-state coverage %d states; %d messages delivered in total\n",
			agg.MaxTimingStates, agg.TotalDelivered)
		nominal := verif.RunStallHunt(0, *seed, 200)
		fmt.Printf("  nominal timing control: %d errors, corner covered: %v\n",
			len(nominal.Errors), nominal.CornerCovered)
		if len(agg.Diagnosis) > 0 {
			fmt.Printf("  channel diagnosis of first failing seed (index %d):\n", agg.FirstBugIndex)
			for _, line := range agg.Diagnosis {
				fmt.Println("    " + line)
			}
		}
		if *vcdOnFail != "" && agg.FirstBugIndex >= 0 {
			// Re-run the failure with tracing armed and dump the handshake
			// waveforms — the "open the wave of the failing seed" workflow.
			_, rec := verif.RunStallHuntTraced(0.30, agg.FirstBugSeed, 200)
			f, err := os.Create(*vcdOnFail)
			check(err)
			samples, changes, err := rec.WriteVCD(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			check(err)
			fmt.Printf("  wrote %s (%d samples, %d changes)\n", *vcdOnFail, samples, changes)
		}
		fmt.Println()
	}
	if *all || *fig6 {
		fmt.Println("(Figure 6 runs full gate-level shadow cosimulation; this takes a minute)")
		rows, sum := soc.RunFig6Campaign(5_000_000, *parallel)
		check(sum.Err())
		collect(sum)
		soc.PrintFig6(os.Stdout, rows)
		printFig6Activity(rows)
		fmt.Println()
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		check(err)
		stats.SortMetrics(merged)
		err = stats.WriteMetricsJSON(f, merged)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		check(err)
		fmt.Printf("wrote %d campaign metrics to %s\n", len(merged), *jsonOut)
	}
}

// printFig6Activity rolls each run's metrics snapshot up by path prefix,
// giving the activity columns behind the power model (NoC flit-hops,
// channel transfers, scratchpad accesses).
func printFig6Activity(rows []soc.Fig6Row) {
	fmt.Printf("%-10s %12s %14s %12s %12s\n",
		"test", "noc flits", "ch transfers", "mem reads", "mem writes")
	for _, r := range rows {
		ms := r.TLMStats
		fmt.Printf("%-10s %12.0f %14.0f %12.0f %12.0f\n", r.Test,
			stats.Total(ms, "soc/noc", "flits_out"),
			stats.Total(ms, "soc", "transfers"),
			stats.Total(ms, "soc", "mem_reads"),
			stats.Total(ms, "soc", "mem_writes"))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}
