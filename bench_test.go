// Benchmarks regenerating the paper's evaluation artifacts, one per
// table/figure (see EXPERIMENTS.md for the mapping and the recorded
// numbers). `go test -bench=. -benchmem` runs them all; cmd/benchfig
// prints the corresponding tables.
package repro

import (
	"testing"

	"repro/internal/connections"
	"repro/internal/core"
	"repro/internal/gals"
	"repro/internal/hls"
	"repro/internal/matchlib"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/synth"
)

// --- Table 1 / Figure 2: Connections channel kinds ---

func benchChannel(b *testing.B, kind connections.Kind, opts ...connections.Option) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in := connections.NewOut[int](), connections.NewIn[int]()
	connections.Bind(clk, "ch", kind, 4, out, in, opts...)
	clk.Spawn("p", func(th *sim.Thread) {
		for i := 0; ; i++ {
			out.Push(th, i)
			th.Wait()
		}
	})
	var got int
	clk.Spawn("c", func(th *sim.Thread) {
		for {
			if _, ok := in.PopNB(th); ok {
				got++
			}
			th.Wait()
		}
	})
	b.ResetTimer()
	s.RunCycles(clk, uint64(b.N))
	b.ReportMetric(float64(got)/float64(b.N), "transfers/cycle")
}

func BenchmarkTable1ChannelCombinational(b *testing.B) {
	benchChannel(b, connections.KindCombinational)
}
func BenchmarkTable1ChannelBypass(b *testing.B)   { benchChannel(b, connections.KindBypass) }
func BenchmarkTable1ChannelPipeline(b *testing.B) { benchChannel(b, connections.KindPipeline) }
func BenchmarkTable1ChannelBuffer(b *testing.B)   { benchChannel(b, connections.KindBuffer) }
func BenchmarkTable1ChannelStalled(b *testing.B) {
	benchChannel(b, connections.KindBuffer, connections.WithStall(0.3, 1))
}

// --- Figure 3: arbitrated-crossbar cycles/transaction, three models ---

func BenchmarkFig3Crossbar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := matchlib.RunFig3Campaign([]int{2, 4, 8, 16}, 100, 7, 1)
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.SigAcc/r.RTL, "sigacc/rtl@"+itoa(r.Ports))
			}
		}
	}
}

// --- §2.4: crossbar coding QoR through HLS + synthesis ---

func BenchmarkXbarQoRSrcLoop32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, nl := synth.Compile(hls.CrossbarSrcLoopDesign(32, 32), hls.DefaultConstraints())
		synth.Report(nl, &synth.Default16nm)
	}
}

func BenchmarkXbarQoRDstLoop32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, nl := synth.Compile(hls.CrossbarDstLoopDesign(32, 32), hls.DefaultConstraints())
		synth.Report(nl, &synth.Default16nm)
	}
}

// --- §2.2: HLS vs hand-RTL ±10% table ---

func BenchmarkQoRTable(b *testing.B) {
	f := core.DefaultFlow()
	for i := 0; i < b.N; i++ {
		if _, err := core.QoRTable(f); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4 / §3.1: GALS clock-domain crossings ---

func benchCrossing(b *testing.B, pausible bool) {
	s := sim.New()
	tx := s.AddClock("tx", 1000, 0)
	rx := s.AddClock("rx", 1013, 170)
	var push func(th *sim.Thread, v int)
	var popNB func() (int, bool)
	if pausible {
		f := gals.NewPausibleBisyncFIFO[int](s, "pf", tx, rx, 4, 40)
		push, popNB = f.Push, f.PopNB
	} else {
		f := gals.NewBruteForceSyncFIFO[int](s, "bf", tx, rx, 4)
		push, popNB = f.Push, f.PopNB
	}
	tx.Spawn("p", func(th *sim.Thread) {
		for i := 0; ; i++ {
			push(th, i)
			th.Wait()
		}
	})
	var got int
	rx.Spawn("c", func(th *sim.Thread) {
		for {
			if _, ok := popNB(); ok {
				got++
			}
			th.Wait()
		}
	})
	b.ResetTimer()
	s.Run(sim.Time(uint64(b.N) * 1000))
	b.ReportMetric(float64(got)/float64(b.N), "transfers/txcycle")
}

func BenchmarkGALSPausibleFIFO(b *testing.B)   { benchCrossing(b, true) }
func BenchmarkGALSBruteForceFIFO(b *testing.B) { benchCrossing(b, false) }

func BenchmarkGALSAdaptiveClockMargin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := gals.RunMarginExperiment(900, 0.10, 1_000_000, 7)
		if i == 0 {
			b.ReportMetric(e.GainPct, "margin-gain-%")
		}
	}
}

// --- NoC ablation: wormhole mesh vs store-and-forward latency ---

func benchMeshTraffic(b *testing.B, opts ...connections.Option) {
	for i := 0; i < b.N; i++ {
		s := sim.New()
		clk := s.AddClock("clk", 1000, 0)
		m := noc.BuildMesh(clk, "m", 4, 4, 2, 4, opts...)
		const pkts = 8
		total := 0
		for src := 0; src < 16; src++ {
			src := src
			clk.Spawn("g", func(th *sim.Thread) {
				for k := 0; k < pkts; k++ {
					dst := (src + 5 + k) % 16
					if dst == src {
						dst = (dst + 1) % 16
					}
					m.Inject[src].Push(th, noc.Packet{Src: src, Dst: dst, ID: uint64(src*100 + k), Payload: []uint64{1, 2}})
					th.Wait()
				}
			})
			total += pkts
		}
		got := 0
		for dst := 0; dst < 16; dst++ {
			dst := dst
			clk.Spawn("s", func(th *sim.Thread) {
				for {
					if _, ok := m.Eject[dst].PopNB(th); ok {
						got++
						if got == total {
							th.Sim().Stop()
						}
					}
					th.Wait()
				}
			})
		}
		s.Run(sim.Infinity - 1)
		if got != total {
			b.Fatalf("delivered %d/%d", got, total)
		}
	}
}

func BenchmarkNoCMeshClean(b *testing.B) { benchMeshTraffic(b) }
func BenchmarkNoCMeshStalled(b *testing.B) {
	benchMeshTraffic(b, connections.WithStall(0.2, 3))
}
func BenchmarkNoCMeshRTLCosim(b *testing.B) {
	benchMeshTraffic(b, connections.WithMode(connections.ModeRTLCosim))
}

// --- Figure 5 / §4: the prototype SoC's six system tests ---

func benchSoCTest(b *testing.B, idx int, mode connections.Mode, galsOn bool) {
	tc := soc.Tests()[idx]
	var cycles, edges uint64
	for i := 0; i < b.N; i++ {
		cfg := soc.DefaultConfig()
		cfg.Mode = mode
		cfg.GALS = galsOn
		s, verify := tc.Build(cfg)
		c, err := s.Run(5_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if err := verify(s); err != nil {
			b.Fatal(err)
		}
		cycles = c
		edges += s.Sim.TotalEdges()
	}
	reportSimRates(b, cycles, edges)
}

// reportSimRates attaches the shared simulation-throughput metrics to a
// SoC-level benchmark: the elapsed cycle count of one run (bit-identical
// across runs and a regression guard for scheduler changes), simulated
// cycles per wall second, and kernel edges processed per wall second.
func reportSimRates(b *testing.B, cyclesPerRun, totalEdges uint64) {
	b.ReportMetric(float64(cyclesPerRun), "cycles")
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(cyclesPerRun)*float64(b.N)/secs, "cycles/sec")
		b.ReportMetric(float64(totalEdges)/secs, "edges/sec")
	}
}

func BenchmarkSoCMemcpy(b *testing.B)  { benchSoCTest(b, 0, connections.ModeSimAccurate, false) }
func BenchmarkSoCVecAdd(b *testing.B)  { benchSoCTest(b, 1, connections.ModeSimAccurate, false) }
func BenchmarkSoCDot(b *testing.B)     { benchSoCTest(b, 2, connections.ModeSimAccurate, false) }
func BenchmarkSoCConv1D(b *testing.B)  { benchSoCTest(b, 3, connections.ModeSimAccurate, false) }
func BenchmarkSoCKMeans(b *testing.B)  { benchSoCTest(b, 4, connections.ModeSimAccurate, false) }
func BenchmarkSoCMaxPool(b *testing.B) { benchSoCTest(b, 5, connections.ModeSimAccurate, false) }
func BenchmarkSoCConv1DGALS(b *testing.B) {
	benchSoCTest(b, 3, connections.ModeSimAccurate, true)
}

// --- Figure 6: TLM vs RTL-cosim wall time (the speedup axis) ---

func BenchmarkFig6TLMModel(b *testing.B) { benchSoCTest(b, 1, connections.ModeSimAccurate, false) }

func BenchmarkFig6RTLCosim(b *testing.B) {
	tc := soc.Tests()[1]
	var cycles, edges uint64
	for i := 0; i < b.N; i++ {
		cfg := soc.DefaultConfig()
		cfg.Mode = connections.ModeRTLCosim
		cfg.ShadowNetlists = true
		s, verify := tc.Build(cfg)
		c, err := s.Run(5_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if err := verify(s); err != nil {
			b.Fatal(err)
		}
		cycles = c
		edges += s.Sim.TotalEdges()
	}
	reportSimRates(b, cycles, edges)
}

// --- §3 / §4: back-end floorplan, clocking, and turnaround models ---

func BenchmarkBackendFloorplan(b *testing.B) {
	parts := core.TestchipPartitions()
	for i := 0; i < b.N; i++ {
		fp := physical.Plan(parts, &physical.Default16nm)
		if bad := fp.Overlaps(); len(bad) != 0 {
			b.Fatal("overlaps")
		}
	}
}

func BenchmarkBackendClockPlans(b *testing.B) {
	parts := core.TestchipPartitions()
	fp := physical.Plan(parts, &physical.Default16nm)
	for i := 0; i < b.N; i++ {
		physical.SynchronousClockPlan(parts, fp, &physical.Default16nm)
		physical.GALSClockPlan(parts, fp, &physical.Default16nm)
	}
}

func BenchmarkBackendAnneal(b *testing.B) {
	parts := core.TestchipPartitions()
	conns := core.TestchipConnectivity()
	var improve float64
	for i := 0; i < b.N; i++ {
		r := physical.Refine(parts, conns, &physical.Default16nm, 1000, int64(i))
		improve = 100 * (r.InitialCost - r.FinalCost) / r.InitialCost
	}
	b.ReportMetric(improve, "cost-improvement-%")
}

func BenchmarkAblationIISweep(b *testing.B) {
	d := hls.Optimize(hls.FIRDesign(16, 16))
	s := hls.Pipeline(d, hls.Constraints{ClockPS: 500, MaxMuls: 4})
	var savings float64
	for i := 0; i < b.N; i++ {
		bs := hls.IISweep(s, []int{1, 2, 4, 8})
		savings = bs[len(bs)-1].SavingsPct
	}
	b.ReportMetric(savings, "ii8-savings-%")
}

func BenchmarkBackendTurnaround(b *testing.B) {
	parts := core.TestchipPartitions()
	var r physical.TurnaroundReport
	for i := 0; i < b.N; i++ {
		r = physical.DefaultRuntime.Turnaround(parts)
	}
	b.ReportMetric(r.HierParallelHours, "hier-hours")
	b.ReportMetric(r.FlatHours, "flat-hours")
}

// --- §4: productivity estimate ---

func BenchmarkProductivityTable(b *testing.B) {
	f := core.DefaultFlow()
	for i := 0; i < b.N; i++ {
		if _, err := core.ProductivityTable(f); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
