package gals

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/exp"
	"repro/internal/sim"
)

// ClockGen models a partition's local clock generator: a ring oscillator
// whose period tracks the local supply voltage. In adaptive mode the
// period is retuned every edge from the instantaneous supply (the
// behaviour of the adaptive generators in the paper's reference [7]);
// in fixed mode the period is locked to the worst-case supply so that
// logic always meets timing — the margin the adaptive scheme removes.
type ClockGen struct {
	Clock *sim.Clock

	nominalPS float64
	vdd       float64 // nominal supply
	alpha     float64 // delay-voltage sensitivity exponent
	adaptive  bool
	guardband float64 // fractional margin added on top of tracking

	noise  *SupplyNoise
	Pauses uint64
}

// SupplyNoise is a deterministic pseudo-random supply waveform: a sum of
// sinusoidal droop components plus bounded white noise, reproducible per
// seed.
type SupplyNoise struct {
	VNom  float64
	Droop float64 // worst-case fractional droop (e.g. 0.10)
	rng   *rand.Rand
	f1    float64
	f2    float64
}

// NewSupplyNoise builds a waveform with the given worst-case droop.
func NewSupplyNoise(vnom, droop float64, seed int64) *SupplyNoise {
	r := rand.New(rand.NewSource(seed))
	return &SupplyNoise{
		VNom: vnom, Droop: droop, rng: r,
		f1: 1.0 / (80_000 + 40_000*r.Float64()),   // ~10 MHz resonance, 1/ps
		f2: 1.0 / (600_000 + 300_000*r.Float64()), // board-level component
	}
}

// At returns the supply voltage at time t.
func (sn *SupplyNoise) At(t sim.Time) float64 {
	ft := float64(t)
	s := 0.55*math.Sin(2*math.Pi*sn.f1*ft) + 0.35*math.Sin(2*math.Pi*sn.f2*ft)
	s += 0.10 * (2*sn.rng.Float64() - 1)
	// s in ~[-1, 1]; map to [VNom*(1-Droop), VNom].
	frac := (1 - s) / 2 // [0,1]
	return sn.VNom * (1 - sn.Droop*frac)
}

// VMin returns the worst-case supply.
func (sn *SupplyNoise) VMin() float64 { return sn.VNom * (1 - sn.Droop) }

// LogicDelayAt scales a nominal path delay for supply v: delay grows as
// (vnom/v)^alpha, the alpha-power model.
func LogicDelayAt(nominalPS, vnom, v, alpha float64) float64 {
	return nominalPS * math.Pow(vnom/v, alpha)
}

// NewClockGen attaches a local generator to the simulator. nominalPS is
// the critical-path delay at nominal supply; the generated period always
// covers the instantaneous critical path. Fixed generators run at the
// worst-case-safe period; adaptive generators retune every edge.
func NewClockGen(s *sim.Simulator, name string, nominalPS float64, noise *SupplyNoise, adaptive bool, guardband float64, phase sim.Time) *ClockGen {
	g := &ClockGen{
		nominalPS: nominalPS,
		vdd:       noise.VNom,
		alpha:     1.3,
		adaptive:  adaptive,
		guardband: guardband,
		noise:     noise,
	}
	g.Clock = s.AddClock(name, sim.Time(g.safePeriod(noise.VMin())), phase)
	if adaptive {
		clk := g.Clock
		clk.AtCommitNamed(name+"/adapt", func() {
			v := noise.At(clk.Now())
			g.Clock.SetPeriod(sim.Time(g.safePeriod(v)))
		})
	}
	return g
}

// safePeriod returns the period covering the critical path at supply v,
// plus guardband.
func (g *ClockGen) safePeriod(v float64) float64 {
	p := LogicDelayAt(g.nominalPS, g.vdd, v, g.alpha) * (1 + g.guardband)
	if p < 1 {
		p = 1
	}
	return p
}

// MarginExperiment quantifies the margin recovered by adaptive clocking:
// it runs both generator styles against the same supply waveform for the
// given duration and reports mean achieved frequency.
type MarginExperiment struct {
	FixedMHz    float64
	AdaptiveMHz float64
	GainPct     float64 // adaptive frequency gain over fixed
}

// RunMarginExperiment measures fixed vs adaptive throughput.
func RunMarginExperiment(nominalPS float64, droop float64, duration sim.Time, seed int64) MarginExperiment {
	count := func(adaptive bool) float64 {
		s := sim.New()
		defer s.Close()
		noise := NewSupplyNoise(0.80, droop, seed)
		g := NewClockGen(s, "clk", nominalPS, noise, adaptive, 0.03, 0)
		s.Run(duration)
		return float64(g.Clock.Cycle()) / (float64(duration) / 1e6) // MHz
	}
	e := MarginExperiment{FixedMHz: count(false), AdaptiveMHz: count(true)}
	e.GainPct = (e.AdaptiveMHz/e.FixedMHz - 1) * 100
	return e
}

// MarginPoint is one droop setting of a margin sweep.
type MarginPoint struct {
	Droop float64
	MarginExperiment
}

// MarginSweep measures the adaptive-vs-fixed margin recovery across
// worst-case droop settings, one campaign job per droop sharded over the
// runner's worker pool. Both generator styles within a point share the
// point's derived noise seed, keeping the gain comparison seed-matched.
// Points come back in droop order, bit-identical for any parallelism.
func MarginSweep(nominalPS float64, droops []float64, duration sim.Time, seed int64, parallel int) ([]MarginPoint, *exp.Summary) {
	jobs := make([]exp.Job, len(droops))
	for i, droop := range droops {
		droop := droop
		jobs[i] = exp.Job{
			Name: fmt.Sprintf("margin/droop[%g]", droop),
			Run: func(c *exp.Ctx) (any, error) {
				return MarginPoint{
					Droop:            droop,
					MarginExperiment: RunMarginExperiment(nominalPS, droop, duration, c.Seed),
				}, nil
			},
		}
	}
	s := exp.Run(jobs, exp.Named("gals"), exp.Seed(seed), exp.Parallel(parallel))
	pts := make([]MarginPoint, 0, len(droops))
	for _, r := range s.Results {
		if p, ok := r.Value.(MarginPoint); ok {
			pts = append(pts, p)
		}
	}
	return pts, s
}

// SyncMTBF estimates the mean time between synchronization failures of
// an n-flop brute-force synchronizer using the classic metastability
// model MTBF = e^(tr/τ) / (T0 · fclk · fdata), where the resolution time
// tr is the slack the chain grants beyond one cycle. Pausible clocking
// sidesteps this entirely — the receiver clock stretches until the
// mutex resolves — which is why the paper's interfaces are "error-free"
// rather than merely improbable-to-fail.
func SyncMTBF(nFlops int, clockPS, dataPS float64) (seconds float64) {
	const (
		tauPS = 10.0 // regeneration time constant, 16nm-class flop
		t0PS  = 20.0 // metastability aperture
	)
	if nFlops < 1 {
		panic("gals: synchronizer needs at least one flop")
	}
	// Resolution time: each extra flop grants one more cycle of slack.
	tr := float64(nFlops-1) * clockPS
	fclk := 1e12 / clockPS // Hz
	fdata := 1e12 / dataPS
	return math.Exp(tr/tauPS) / (t0PS * 1e-12 * fclk * fdata)
}

// Overhead is the paper's <3% GALS area cost model for one partition.
type Overhead struct {
	PartitionGates int
	Interfaces     int
	ClockGenGates  int
	FIFOGates      int
	OverheadPct    float64
}

// Per-instance gate costs (NAND2 equivalents), from the mapped sizes of
// the components: a local clock generator (ring oscillator, tuning DACs,
// control) and one pausible bisynchronous FIFO interface.
const (
	ClockGenGates     = 3200
	PausibleFIFOGates = 1400
)

// GALSOverhead computes the area overhead of converting a partition of
// the given size with n asynchronous interfaces to fine-grained GALS.
func GALSOverhead(partitionGates, interfaces int) Overhead {
	o := Overhead{
		PartitionGates: partitionGates,
		Interfaces:     interfaces,
		ClockGenGates:  ClockGenGates,
		FIFOGates:      interfaces * PausibleFIFOGates,
	}
	o.OverheadPct = 100 * float64(o.ClockGenGates+o.FIFOGates) / float64(partitionGates)
	return o
}

func (o Overhead) String() string {
	return fmt.Sprintf("partition %d gates, %d interfaces: +%d gates (%.2f%%)",
		o.PartitionGates, o.Interfaces, o.ClockGenGates+o.FIFOGates, o.OverheadPct)
}
