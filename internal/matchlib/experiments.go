package matchlib

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/connections"
	"repro/internal/exp"
	"repro/internal/sim"
)

// Fig3Row is one x-position of the paper's Figure 3: cycles per
// transaction through an arbitrated crossbar with the given port count,
// measured on the structural RTL model, the sim-accurate Connections
// model, and the signal-accurate Connections model. Cycles/transaction
// is elapsed cycles divided by transactions delivered per port under
// saturated uniform-random traffic.
type Fig3Row struct {
	Ports  int
	RTL    float64
	SimAcc float64
	SigAcc float64
}

// xbarTLMCyclesPerTxn drives the thread-based ArbitratedCrossbar through
// channels of the given mode until every source has delivered msgs
// messages, and returns elapsed cycles divided by msgs.
func xbarTLMCyclesPerTxn(n, msgs int, mode connections.Mode, seed int64) float64 {
	s, clk := xbarTLMHarness(n, msgs, mode, seed)
	defer s.Close()
	s.Run(sim.Infinity - 1)
	return float64(clk.Cycle()) / float64(msgs)
}

// xbarTLMHarness builds, but does not run, the saturated-traffic harness
// of xbarTLMCyclesPerTxn: one source thread and input channel per input
// port, one sink thread and output channel per output port, each named
// by its port index. The sinks stop the simulation once n*msgs messages
// arrived.
func xbarTLMHarness(n, msgs int, mode connections.Mode, seed int64) (*sim.Simulator, *sim.Clock) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	x := NewArbitratedCrossbar[int](clk, "x", n, 2)
	for i := 0; i < n; i++ {
		srcOut := connections.NewOut[XbarMsg[int]]()
		connections.Buffer(clk, fmt.Sprintf("in[%d]", i), 2, srcOut, x.In[i], connections.WithMode(mode))
		r := rand.New(rand.NewSource(seed + int64(i)))
		clk.Spawn(fmt.Sprintf("src[%d]", i), func(th *sim.Thread) {
			for k := 0; k < msgs; k++ {
				srcOut.Push(th, XbarMsg[int]{Dst: r.Intn(n)})
				th.Wait()
			}
		})
	}
	total := 0
	for j := 0; j < n; j++ {
		sinkIn := connections.NewIn[int]()
		connections.Buffer(clk, fmt.Sprintf("out[%d]", j), 2, x.Out[j], sinkIn, connections.WithMode(mode))
		clk.Spawn(fmt.Sprintf("sink[%d]", j), func(th *sim.Thread) {
			for {
				if _, ok := sinkIn.PopNB(th); ok {
					total++
					if total == n*msgs {
						th.Sim().Stop()
					}
				}
				th.Wait()
			}
		})
	}
	return s, clk
}

// xbarRTLCyclesPerTxn drives the structural RTL crossbar with saturated
// sources and always-ready sinks.
func xbarRTLCyclesPerTxn(n, msgs int, seed int64) float64 {
	s := sim.New()
	defer s.Close()
	clk := s.AddClock("clk", 1000, 0)
	r := rand.New(rand.NewSource(seed))
	sent := make([]int, n)
	x := NewStructuralCrossbar(clk, "rtl", n, 2,
		func(i int) (XbarMsg[int], bool) {
			if sent[i] >= msgs {
				return XbarMsg[int]{}, false
			}
			sent[i]++
			return XbarMsg[int]{Dst: r.Intn(n)}, true
		},
		func(j int, v int) bool { return true })
	for x.TotalAccepted() < uint64(n*msgs) {
		s.RunCycles(clk, 16)
	}
	return float64(clk.Cycle()) / float64(msgs)
}

// RunFig3 measures all three series for the given port counts. It is
// the sequential form of RunFig3Campaign and returns identical rows.
func RunFig3(ports []int, msgsPerPort int, seed int64) []Fig3Row {
	rows, _ := RunFig3Campaign(ports, msgsPerPort, seed, 1)
	return rows
}

// RunFig3Campaign measures the figure's series with one campaign job per
// x-position (port count), sharded over the runner's worker pool. All
// three series of a row share that row's derived seed so the comparison
// between models stays seed-matched. Rows come back in port order and
// are bit-identical for any parallelism level.
func RunFig3Campaign(ports []int, msgsPerPort int, seed int64, parallel int) ([]Fig3Row, *exp.Summary) {
	jobs := make([]exp.Job, len(ports))
	for i, n := range ports {
		n := n
		jobs[i] = exp.Job{
			Name: fmt.Sprintf("ports[%d]", n),
			Run: func(c *exp.Ctx) (any, error) {
				return Fig3Row{
					Ports:  n,
					RTL:    xbarRTLCyclesPerTxn(n, msgsPerPort, c.Seed),
					SimAcc: xbarTLMCyclesPerTxn(n, msgsPerPort, connections.ModeSimAccurate, c.Seed),
					SigAcc: xbarTLMCyclesPerTxn(n, msgsPerPort, connections.ModeSignalAccurate, c.Seed),
				}, nil
			},
		}
	}
	s := exp.Run(jobs, exp.Named("fig3"), exp.Seed(seed), exp.Parallel(parallel))
	rows := make([]Fig3Row, 0, len(ports))
	for _, r := range s.Results {
		if row, ok := r.Value.(Fig3Row); ok {
			rows = append(rows, row)
		}
	}
	return rows, s
}

// PrintFig3 renders the series as the paper's figure data.
func PrintFig3(w io.Writer, rows []Fig3Row) {
	fmt.Fprintln(w, "Figure 3: cycles per transaction, arbitrated crossbar (saturated random traffic)")
	fmt.Fprintf(w, "%-6s %10s %14s %16s\n", "ports", "RTL", "sim-accurate", "signal-accurate")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %10.2f %14.2f %16.2f\n", r.Ports, r.RTL, r.SimAcc, r.SigAcc)
	}
}
