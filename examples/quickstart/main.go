// Quickstart: the Connections latency-insensitive channel API.
//
// A producer and a consumer are written once against the polymorphic
// In/Out ports; the integration chooses the channel kind, simulation
// model, retiming latency, and stall injection at bind time without
// touching either module — the core idea of the paper's §2.3.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/connections"
	"repro/internal/sim"
)

// produce pushes n tokens; it knows nothing about the channel behind out.
func produce(th *sim.Thread, out *connections.Out[int], n int) {
	for i := 0; i < n; i++ {
		out.Push(th, i*i)
		th.Wait()
	}
}

// consume pops n tokens.
func consume(th *sim.Thread, in *connections.In[int], n int) {
	for i := 0; i < n; i++ {
		v := in.Pop(th)
		if v != i*i {
			panic(fmt.Sprintf("got %d, want %d", v, i*i))
		}
		th.Wait()
	}
	th.Sim().Stop()
}

func run(kind connections.Kind, opts ...connections.Option) (cycles uint64, st connections.Stats) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in := connections.NewOut[int](), connections.NewIn[int]()
	ch := connections.Bind(clk, "ch", kind, 4, out, in, opts...)

	const n = 200
	clk.Spawn("producer", func(th *sim.Thread) { produce(th, out, n) })
	clk.Spawn("consumer", func(th *sim.Thread) { consume(th, in, n) })
	s.Run(sim.Infinity - 1)
	return clk.Cycle(), ch.Stats()
}

func main() {
	fmt.Println("Same producer/consumer code, different channels at integration time:")
	for _, kind := range []connections.Kind{
		connections.KindCombinational, connections.KindBypass,
		connections.KindPipeline, connections.KindBuffer,
	} {
		cycles, st := run(kind)
		fmt.Printf("  %-14s  %4d cycles for %d transfers (mean occupancy %.2f)\n",
			kind, cycles, st.Transfers, st.MeanOccupancy())
	}

	cycles, _ := run(connections.KindBuffer, connections.WithLatency(6))
	fmt.Printf("  %-14s  %4d cycles with 6 retiming registers added for floorplanning\n", "Buffer+retime", cycles)

	cycles, st := run(connections.KindBuffer, connections.WithStall(0.4, 99))
	fmt.Printf("  %-14s  %4d cycles under 40%% stall injection — still %d/%d correct transfers\n",
		"Buffer+stalls", cycles, st.Transfers, 200)

	cycles, _ = run(connections.KindBuffer, connections.WithMode(connections.ModeSignalAccurate))
	fmt.Printf("  %-14s  %4d cycles under the signal-accurate model (each port op serializes)\n",
		"signal-acc", cycles)
}
