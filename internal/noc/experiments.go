package noc

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/exp"
	"repro/internal/sim"
)

// LoadPoint is one offered-load sample of a NoC load-latency sweep.
type LoadPoint struct {
	OfferedLoad float64 // injection probability per node per cycle
	Throughput  float64 // delivered packets per node per cycle
	MeanLatency float64 // cycles, injection to ejection
	Delivered   int
}

// LoadLatencyCampaign measures the sweep with one campaign job per
// offered-load point, sharded over the runner's worker pool. Each
// point's traffic seed is derived from the point's job name and the
// campaign seed, so the curve is bit-identical for any parallelism
// level. Points come back in the order of loads.
func LoadLatencyCampaign(w, h int, loads []float64, cycles uint64, payloadWords int, seed int64, parallel int) ([]LoadPoint, *exp.Summary) {
	jobs := make([]exp.Job, len(loads))
	for i, load := range loads {
		load := load
		jobs[i] = exp.Job{
			Name: fmt.Sprintf("load[%g]", load),
			Run: func(c *exp.Ctx) (any, error) {
				return runLoadPoint(w, h, load, cycles, payloadWords, c.Seed), nil
			},
		}
	}
	s := exp.Run(jobs, exp.Named("noc"), exp.Seed(seed), exp.Parallel(parallel))
	pts := make([]LoadPoint, 0, len(loads))
	for _, r := range s.Results {
		if p, ok := r.Value.(LoadPoint); ok {
			pts = append(pts, p)
		}
	}
	return pts, s
}

func runLoadPoint(w, h int, load float64, cycles uint64, payloadWords int, seed int64) LoadPoint {
	s := sim.New()
	defer s.Close()
	clk := s.AddClock("clk", 1000, 0)
	m := BuildMesh(clk, "m", w, h, 2, 4)
	n := w * h
	sent := map[uint64]uint64{}
	var delivered int
	var latSum uint64
	var nextID uint64

	for src := 0; src < n; src++ {
		src := src
		r := rand.New(rand.NewSource(seed + int64(src)))
		clk.Spawn(fmt.Sprintf("gen%d", src), func(th *sim.Thread) {
			payload := make([]uint64, payloadWords)
			for th.Cycle() < cycles {
				if r.Float64() < load {
					dst := r.Intn(n)
					if dst == src {
						dst = (dst + 1) % n
					}
					id := uint64(src)<<32 | nextID
					nextID++
					// Non-blocking injection: if the NI is backed up the
					// packet is dropped at the source, which keeps the
					// offered load honest past saturation.
					if m.Inject[src].PushNB(th, Packet{Src: src, Dst: dst, ID: id, Payload: payload}) {
						sent[id] = th.Cycle()
					}
				}
				th.Wait()
			}
		})
	}
	for dst := 0; dst < n; dst++ {
		dst := dst
		clk.Spawn(fmt.Sprintf("sink%d", dst), func(th *sim.Thread) {
			for {
				if p, ok := m.Eject[dst].PopNB(th); ok {
					if t0, ok2 := sent[p.ID]; ok2 {
						latSum += th.Cycle() - t0
						delivered++
					}
				}
				th.Wait()
			}
		})
	}
	// Run the injection window plus a drain tail.
	s.RunCycles(clk, cycles+uint64(4*(w+h))*uint64(payloadWords+2))

	pt := LoadPoint{OfferedLoad: load, Delivered: delivered}
	if delivered > 0 {
		pt.MeanLatency = float64(latSum) / float64(delivered)
		pt.Throughput = float64(delivered) / float64(n) / float64(cycles)
	}
	return pt
}

// PrintLoadLatency renders the sweep.
func PrintLoadLatency(wr io.Writer, w, h int, pts []LoadPoint) {
	fmt.Fprintf(wr, "NoC load-latency sweep, %d×%d wormhole mesh, uniform random traffic\n", w, h)
	fmt.Fprintf(wr, "%-14s %12s %14s %10s\n", "offered load", "throughput", "mean latency", "delivered")
	for _, p := range pts {
		fmt.Fprintf(wr, "%13.2f %12.3f %13.1f %10d\n", p.OfferedLoad, p.Throughput, p.MeanLatency, p.Delivered)
	}
}
