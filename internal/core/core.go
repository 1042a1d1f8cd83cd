package core

import (
	"fmt"
	"io"
	"math/rand"
	"time" //detvet:ok feeds only Report.Wall, a wall-clock report field

	"repro/internal/hls"
	"repro/internal/physical"
	"repro/internal/power"
	"repro/internal/rtl"
	"repro/internal/synth"
)

// Flow bundles the tool and technology configuration of one compilation
// run, playing the role of the HLS and synthesis scripts in Figure 1.
type Flow struct {
	Lib   *synth.TechLib
	Power power.Model
	Tech  *physical.Tech
	Cons  hls.Constraints
}

// DefaultFlow targets the generic 16nm library at the testchip's 1.1 GHz.
func DefaultFlow() *Flow {
	return &Flow{
		Lib:   &synth.Default16nm,
		Power: power.Default16nm,
		Tech:  &physical.Default16nm,
		Cons:  hls.DefaultConstraints(),
	}
}

// Report is the result of pushing one design through the flow.
type Report struct {
	Design  string
	Ops     int // dataflow operations after optimization
	Stages  int // pipeline stages
	Clock   int // requested period, ps
	Timing  synth.Timing
	Area    synth.AreaReport
	Power   power.Report
	Steps   int // HLS scheduler work items
	Wall    time.Duration
	Netlist *rtl.Netlist

	// Schedule is the pipelined schedule the netlist was mapped from;
	// its Design is the optimized design.
	Schedule *hls.Schedule

	VectorsChecked int // equivalence vectors verified against the golden model
}

// Run compiles a design end to end: optimize → schedule → map → optimize
// netlist → STA → equivalence-check against the golden interpreter over
// random vectors (collecting switching activity) → power estimate.
func (f *Flow) Run(d *hls.Design, vectors int, seed int64) (Report, error) {
	start := time.Now()
	sched, nl := synth.Compile(d, f.Cons)
	rep := Report{
		Design:   d.Name,
		Ops:      sched.Design.OpCount(),
		Stages:   sched.Latency + 1,
		Clock:    f.Cons.ClockPS,
		Timing:   synth.STA(nl, f.Lib),
		Area:     synth.Report(nl, f.Lib),
		Steps:    sched.Steps,
		Netlist:  nl,
		Schedule: sched,
	}

	// RTL cosimulation doubles as verification and activity capture. It
	// runs on the simulator's word-slice fast path.
	sim, err := rtl.NewSimulator(nl)
	if err != nil {
		return rep, fmt.Errorf("core: %s: %w", d.Name, err)
	}
	r := rand.New(rand.NewSource(seed))
	rep.VectorsChecked, err = synth.Cosim(d, sched.Latency, sim, vectors, func(int) map[string]uint64 {
		return d.RandomInputs(r)
	})
	if err != nil {
		return rep, fmt.Errorf("core: %w", err)
	}
	rep.Power = f.Power.FromSimulation(d.Name, sim, nl, f.Lib, rep.Timing.FmaxMHz)
	rep.Wall = time.Since(start)
	return rep, nil
}

func (r Report) String() string {
	return fmt.Sprintf("%s: %d ops → %d stages, %d gates, %.0f MHz, %.3f mW (%d vectors verified, %s)",
		r.Design, r.Ops, r.Stages, r.Area.GateCount, r.Timing.FmaxMHz, r.Power.TotalMW, r.VectorsChecked, r.Wall.Round(time.Millisecond))
}

// TestchipPartitions returns the five unique physical partitions of the
// prototype SoC (§4: 15 replicated PEs, two global-memory halves, the
// RISC-V, and I/O).
func TestchipPartitions() []physical.Partition {
	return []physical.Partition{
		{Name: "pe", Gates: 280_000, SRAMKb: 128, Replicas: 15, AsyncIfc: 2},
		{Name: "gmem_l", Gates: 350_000, SRAMKb: 1024, Replicas: 1, AsyncIfc: 2},
		{Name: "gmem_r", Gates: 350_000, SRAMKb: 1024, Replicas: 1, AsyncIfc: 2},
		{Name: "riscv", Gates: 600_000, SRAMKb: 256, Replicas: 1, AsyncIfc: 2},
		{Name: "io", Gates: 150_000, SRAMKb: 16, Replicas: 1, AsyncIfc: 3},
	}
}

// PrintBackendReport renders the §3/§4 back-end comparison: floorplan,
// synchronous vs GALS clocking, and flat vs hierarchical turnaround.
func PrintBackendReport(w io.Writer, f *Flow) {
	parts := TestchipPartitions()
	fp := physical.Plan(parts, f.Tech)
	fmt.Fprintf(w, "Floorplan: die %.2f x %.2f mm, %d placed partitions, %.0f%% utilization\n",
		fp.DieW/1000, fp.DieH/1000, len(fp.Rects), 100*fp.UsedArea/(fp.DieW*fp.DieH))

	syn := physical.SynchronousClockPlan(parts, fp, f.Tech)
	gls := physical.GALSClockPlan(parts, fp, f.Tech)
	fmt.Fprintf(w, "Clocking:\n  %v\n  %v\n", syn, gls)
	fmt.Fprintf(w, "  GALS area overhead: %.2f%% (paper: <3%%)\n", gls.OverheadPct(parts))

	tr := physical.DefaultRuntime.Turnaround(parts)
	fmt.Fprintf(w, "Turnaround: flat %.1f h; hierarchical serial %.1f h; hierarchical parallel %.1f h across %d unique partitions (paper: 12 h)\n",
		tr.FlatHours, tr.HierSerialHours, tr.HierParallelHours, tr.UniquePartitions)

	ref := physical.Refine(parts, TestchipConnectivity(), f.Tech, 2000, 1)
	fmt.Fprintf(w, "Floorplan annealing: cost %.3e -> %.3e (%.1f%% better, %d/%d moves accepted)\n",
		ref.InitialCost, ref.FinalCost, 100*(ref.InitialCost-ref.FinalCost)/ref.InitialCost,
		ref.Accepted, ref.Moves)
}

// TestchipConnectivity is the SoC's inter-partition traffic profile used
// as the floorplanner's wirelength objective.
func TestchipConnectivity() []physical.Connectivity {
	return []physical.Connectivity{
		{A: "pe", B: "gmem_l", Weight: 4},
		{A: "pe", B: "gmem_r", Weight: 4},
		{A: "pe", B: "riscv", Weight: 1},
		{A: "riscv", B: "io", Weight: 2},
		{A: "gmem_l", B: "io", Weight: 1},
	}
}
