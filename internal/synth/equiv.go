package synth

import (
	"fmt"

	"repro/internal/hls"
	"repro/internal/rtl"
)

// Compile runs the flow's compiler path on a design: HLS optimization,
// scheduling and pipelining under c, mapping to gates, and gate-level
// optimization. The schedule's Design is the optimized design.
func Compile(d *hls.Design, c hls.Constraints) (*hls.Schedule, *rtl.Netlist) {
	s := hls.Pipeline(hls.Optimize(d), c)
	return s, Optimize(Map(s))
}

// Cosim streams vectors through a netlist simulator and checks every
// output against the golden model: the outputs of step k must equal
// d.Interpret of the vector issued latency steps earlier. vec supplies
// the vector for each of the n+latency steps (the last latency of them
// only flush the pipeline) and is called exactly once per step, in
// order. Outputs are compared in d.Outputs order; an output the netlist
// lacks reads as zero. The caller owns sim, so its switching activity
// stays readable afterwards. Cosim returns the number of vectors
// verified.
func Cosim(d *hls.Design, latency int, sim *rtl.Simulator, n int, vec func(k int) map[string]uint64) (int, error) {
	inPorts := sim.InputPorts()
	outIdx := map[string]int{}
	for i, p := range sim.OutputPorts() {
		outIdx[p.Name] = i
	}
	inw := make([]uint64, len(inPorts))
	outw := make([]uint64, len(sim.OutputPorts()))
	// issued[k%(latency+1)] holds the vector of step k until its outputs
	// leave the pipeline.
	issued := make([]map[string]uint64, latency+1)
	verified := 0
	for k := 0; k < n+latency; k++ {
		in := vec(k)
		issued[k%(latency+1)] = in
		for i, p := range inPorts {
			inw[i] = in[p.Name]
		}
		sim.StepWords(inw, outw)
		if k < latency {
			continue
		}
		want := d.Interpret(issued[(k-latency)%(latency+1)])
		for _, o := range d.Outputs {
			var got uint64
			if gi, ok := outIdx[o.Name]; ok {
				got = outw[gi]
			}
			if w := want[o.Name]; got != w {
				return verified, fmt.Errorf("synth: %s NOT equivalent: vector %d output %s = %#x, want %#x",
					d.Name, k-latency, o.Name, got, w)
			}
		}
		verified++
	}
	return verified, nil
}

// ProveEquivalence exhaustively enumerates every input combination of a
// design (up to maxBits total input bits) and checks the mapped netlist
// against the golden interpreter on all of them. For small blocks this
// is complete formal equivalence — the check the paper notes commercial
// flows lacked for C-to-RTL — and the flow's tests run it on every
// bundled design that fits. Vector k packs input k of the space, first
// port in the low bits. It returns the number of vectors proven.
func ProveEquivalence(d *hls.Design, latency int, nl *rtl.Netlist, maxBits int) (int, error) {
	total := 0
	for _, p := range d.Inputs {
		total += p.Width
	}
	if total > maxBits {
		return 0, fmt.Errorf("synth: %s has %d input bits, over the %d-bit exhaustive limit", d.Name, total, maxBits)
	}
	sim, err := rtl.NewSimulator(nl)
	if err != nil {
		return 0, fmt.Errorf("synth: %s: %w", d.Name, err)
	}
	space := 1 << uint(total)
	return Cosim(d, latency, sim, space, func(k int) map[string]uint64 {
		if k >= space {
			k = 0 // flush the pipeline
		}
		v := uint64(k)
		in := map[string]uint64{}
		for _, p := range d.Inputs {
			in[p.Name] = v & (1<<uint(p.Width) - 1)
			v >>= uint(p.Width)
		}
		return in
	})
}
