// NoC demo: a 4×4 wormhole mesh under random traffic.
//
// Builds the MatchLib WHVC-router mesh, drives uniform-random packet
// traffic from every node, and reports delivered packets, latency, and
// router statistics — then repeats with stall injection on every link to
// demonstrate timing perturbation without functional change (§2.3).
//
//	go run ./examples/nocdemo
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/connections"
	"repro/internal/noc"
	"repro/internal/sim"
)

func run(label string, opts ...connections.Option) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	const w, h, pktsPerNode = 4, 4, 30
	m := noc.BuildMesh(clk, "m", w, h, 2, 4, opts...)
	n := w * h

	type key struct{ id uint64 }
	sent := map[uint64]uint64{} // packet id -> inject cycle
	var totalLatency, delivered uint64

	r := rand.New(rand.NewSource(42))
	var id uint64
	for src := 0; src < n; src++ {
		src := src
		var pkts []noc.Packet
		for k := 0; k < pktsPerNode; k++ {
			dst := r.Intn(n)
			if dst == src {
				dst = (dst + 1) % n
			}
			pkts = append(pkts, noc.Packet{Src: src, Dst: dst, ID: id, Payload: []uint64{uint64(k), uint64(src)}})
			id++
		}
		clk.Spawn(fmt.Sprintf("gen%d", src), func(th *sim.Thread) {
			for _, p := range pkts {
				m.Inject[src].Push(th, p)
				sent[p.ID] = th.Cycle()
				th.Wait()
			}
		})
	}
	total := int(id)
	for dst := 0; dst < n; dst++ {
		dst := dst
		clk.Spawn(fmt.Sprintf("sink%d", dst), func(th *sim.Thread) {
			for {
				if p, ok := m.Eject[dst].PopNB(th); ok {
					totalLatency += th.Cycle() - sent[p.ID]
					delivered++
					if delivered == uint64(total) {
						th.Sim().Stop()
					}
				}
				th.Wait()
			}
		})
	}
	s.Run(1_000_000_000)

	var flits, stalls uint64
	for _, rt := range m.Routers {
		flits += rt.Stats.FlitsOut
		stalls += rt.Stats.Stalls
	}
	fmt.Printf("%-22s delivered %3d/%3d packets in %5d cycles; mean latency %5.1f; %5d flit-hops, %4d back-pressure stalls\n",
		label, delivered, total, clk.Cycle(), float64(totalLatency)/float64(delivered), flits, stalls)
}

func main() {
	run("clean links")
	run("25% stall injection", connections.WithStall(0.25, 7))
	run("RTL-cosim channels", connections.WithMode(connections.ModeRTLCosim))
}
