package verif

import (
	"context"
	"fmt"

	"repro/internal/connections"
	"repro/internal/exp"
	"repro/internal/matchlib"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the paper's stall-injection demonstration (§2.3): a merge
// unit carries a seeded corner-case bug — when both inputs deliver in the
// same cycle while its queue has exactly one free slot, it drops the
// second item. Under nominal timing the testbench's producers alternate,
// so the corner never occurs and directed simulation passes; with random
// stalls injected into the channels (no design or testbench changes),
// deliveries collide and the bug is caught by the scoreboard.

// StallHuntResult summarizes one run of the experiment.
type StallHuntResult struct {
	Errors        []string // scoreboard findings (non-empty = bug exposed)
	TimingStates  int      // distinct (validA, validB, occupancy) states covered
	CornerCovered bool     // the buggy corner state was reached
	Delivered     int
}

// timingStateKeys precomputes the coverage key for every reachable
// (validA, validB, occupancy) timing state, indexed by stateIndex. The
// key strings match the historical fmt.Sprintf("a%v_b%v_q%d", ...)
// format so coverage dumps stay comparable across versions.
func timingStateKeys(qcap int) []string {
	keys := make([]string, 4*(qcap+1))
	for _, aok := range []bool{false, true} {
		for _, bok := range []bool{false, true} {
			for occ := 0; occ <= qcap; occ++ {
				keys[stateIndex(aok, bok, occ)] = fmt.Sprintf("a%v_b%v_q%d", aok, bok, occ)
			}
		}
	}
	return keys
}

// stateIndex maps a (validA, validB, occupancy) state to its key slot.
func stateIndex(aok, bok bool, occ int) int {
	i := occ << 2
	if aok {
		i |= 1
	}
	if bok {
		i |= 2
	}
	return i
}

// StallHuntCampaign aggregates a multi-seed stall hunt: the paper's
// point is that any single stall seed may or may not reach the corner,
// but a cheap campaign of seeds finds the bug with high probability.
type StallHuntCampaign struct {
	Results         []StallHuntResult // per stall seed, in seed-index order
	BugSeeds        int               // seeds whose scoreboard caught the bug
	CornerSeeds     int               // seeds that reached the buggy corner state
	MaxTimingStates int               // best timing-state coverage of any seed
	TotalDelivered  int

	// FirstBugIndex is the lowest seed index whose scoreboard caught the
	// bug (-1 when every seed passed), and FirstBugSeed its derived stall
	// seed — enough to re-run that exact failure standalone.
	FirstBugIndex int
	FirstBugSeed  int64
	// Diagnosis is the channel-level trace analysis of the first failing
	// seed, re-run with tracing armed: one line per channel plus a
	// suspect roll-up (Report.Summary). Empty when no seed failed.
	Diagnosis []string
}

// RunStallHuntCampaign runs the stall-injection testbench under nSeeds
// independently derived stall seeds, one campaign job per seed
// ("seed[i]") sharded over the runner's worker pool. Each job's stall
// seed comes from the campaign seed-derivation rule, so the aggregate
// is bit-identical for any parallelism level. Extra campaign options
// (exp.OnProgress, exp.WithContext, ...) are appended after the fixed
// ones; the job service uses them to stream per-seed progress and to
// cancel a hunt on graceful drain.
func RunStallHuntCampaign(pStall float64, messages, nSeeds int, campaignSeed int64, parallel int, extra ...exp.Option) (StallHuntCampaign, *exp.Summary) {
	jobs := make([]exp.Job, nSeeds)
	for i := range jobs {
		jobs[i] = exp.Job{
			Name: fmt.Sprintf("seed[%d]", i),
			Run: func(c *exp.Ctx) (any, error) {
				return runStallHunt(c.Context(), pStall, c.Seed, messages, nil, nil), nil
			},
		}
	}
	opts := append([]exp.Option{exp.Named("stallhunt"), exp.Seed(campaignSeed), exp.Parallel(parallel)}, extra...)
	s := exp.Run(jobs, opts...)
	agg := StallHuntCampaign{FirstBugIndex: -1}
	for i, r := range s.Results {
		res, ok := r.Value.(StallHuntResult)
		if !ok {
			continue
		}
		agg.Results = append(agg.Results, res)
		if len(res.Errors) > 0 {
			agg.BugSeeds++
			if agg.FirstBugIndex < 0 {
				agg.FirstBugIndex = i
			}
		}
		if res.CornerCovered {
			agg.CornerSeeds++
		}
		if res.TimingStates > agg.MaxTimingStates {
			agg.MaxTimingStates = res.TimingStates
		}
		agg.TotalDelivered += res.Delivered
	}
	// Auto-diagnose a failing campaign: re-run the first failing seed with
	// the tracer armed and attach the channel-level analysis. The re-run
	// happens here, sequentially, on the job's derived seed — so the
	// diagnosis text is bit-identical for any worker count, and passing
	// campaigns pay nothing. A canceled campaign skips it: its aggregate
	// is partial, and the caller reports the cancellation instead.
	if agg.FirstBugIndex >= 0 && s.Canceled == 0 {
		agg.FirstBugSeed = exp.DeriveSeed(campaignSeed, fmt.Sprintf("seed[%d]", agg.FirstBugIndex))
		_, rec := RunStallHuntTraced(pStall, agg.FirstBugSeed, messages)
		agg.Diagnosis = rec.Analyze(DiagnosisHorizon).Summary()
	}
	return agg, s
}

// DiagnosisHorizon is the deadlock bound (in DUT-clock cycles) used by
// the campaign auto-diagnosis: a channel still holding messages with no
// successful pop in this many trailing cycles is flagged as a suspect.
// The stall-hunt checker gives up after 3000 idle cycles, so a channel
// quiet for 1000 cycles at the end of the run is genuinely wedged, not
// merely slow.
const DiagnosisHorizon = 1000

// RunStallHunt runs the seeded-bug testbench. pStall = 0 reproduces
// nominal timing; pStall > 0 enables the paper's stall injection.
func RunStallHunt(pStall float64, seed int64, messages int) StallHuntResult {
	return runStallHunt(context.TODO(), pStall, seed, messages, nil, nil)
}

// RunStallHuntTraced runs the same testbench with channel-level tracing
// armed, returning the recorder alongside the result. Feed the recorder
// to Recorder.WriteVCD for a waveform of the failure or to
// Recorder.Analyze for the backpressure/deadlock report. Tracing is pure
// observation, so the result is cycle-identical to RunStallHunt with the
// same arguments.
func RunStallHuntTraced(pStall float64, seed int64, messages int) (StallHuntResult, *trace.Recorder) {
	rec := trace.NewRecorder()
	return runStallHunt(context.TODO(), pStall, seed, messages, rec, nil), rec
}

// runStallHunt runs the testbench; rec, when set, arms channel tracing,
// and inspect, when set, sees the still-live simulator after the run.
func runStallHunt(ctx context.Context, pStall float64, seed int64, messages int, rec *trace.Recorder, inspect func(*sim.Simulator)) StallHuntResult {
	s := sim.New()
	defer s.Close()
	defer context.AfterFunc(ctx, s.Stop)()
	if rec != nil {
		s.Arm(rec)
	}
	clk := s.AddClock("clk", 1000, 0)
	cov := NewCoverage()
	cov.Attach(s.Metrics(), "verif/coverage")
	sb := NewScoreboard()

	var opts []connections.Option
	if pStall > 0 {
		opts = append(opts, connections.WithStall(pStall, seed))
	}

	aOut, aIn := connections.NewOut[int](), connections.NewIn[int]()
	bOut, bIn := connections.NewOut[int](), connections.NewIn[int]()
	mOut, mIn := connections.NewOut[int](), connections.NewIn[int]()
	connections.Buffer(clk, "a", 2, aOut, aIn, opts...)
	connections.Buffer(clk, "b", 2, bOut, bIn, opts...)
	connections.Buffer(clk, "m", 2, mOut, mIn, opts...)

	// Alternating producers: under nominal timing A and B never deliver
	// in the same cycle.
	clk.Spawn("prodA", func(th *sim.Thread) {
		for i := 0; i < messages; i++ {
			aOut.Push(th, i)
			sb.Expect("a", uint64(i))
			th.WaitN(2)
		}
	})
	clk.Spawn("prodB", func(th *sim.Thread) {
		th.Wait() // offset by one cycle
		for i := 0; i < messages; i++ {
			bOut.Push(th, 1_000_000+i)
			sb.Expect("b", uint64(1_000_000+i))
			th.WaitN(2)
		}
	})

	// The DUT: merge with the seeded queue-full corner bug. Under
	// nominal timing the queue hovers near empty and the inputs never
	// collide; only stalled output plus bunched inputs reach the corner.
	const qcap = 4
	q := matchlib.NewFIFO[int](qcap)
	// The (validA, validB, occupancy) timing-state keys are hit every
	// cycle on the DUT's hottest loop; interning the small fixed key set
	// up front keeps the per-cycle cost to two bools and an index instead
	// of a fmt.Sprintf allocation.
	stateKeys := timingStateKeys(qcap)
	clk.Spawn("merge", func(th *sim.Thread) {
		for {
			av, aok := aIn.Peek()
			bv, bok := bIn.Peek()
			cov.Hit(stateKeys[stateIndex(aok, bok, q.Len())])
			if aok && bok && q.Len() == qcap-1 {
				cov.Hit("corner")
			}
			if q.Len() < qcap {
				if aok && bok {
					// BUG: one occupancy check for two enqueues — the
					// second item is dropped when only one slot is free.
					aIn.PopNB(th)
					bIn.PopNB(th)
					q.Push(av)
					if q.Len() < qcap {
						q.Push(bv)
					} // else bv silently lost
				} else if aok {
					aIn.PopNB(th)
					q.Push(av)
				} else if bok {
					bIn.PopNB(th)
					q.Push(bv)
				}
			}
			if !q.Empty() && mOut.PushNB(th, q.Peek()) {
				q.Pop()
			}
			th.Wait()
		}
	})

	delivered := 0
	clk.Spawn("checker", func(th *sim.Thread) {
		idle := 0
		for {
			if v, ok := mIn.PopNB(th); ok {
				idle = 0
				delivered++
				if v >= 1_000_000 {
					sb.Observe("b", uint64(v))
				} else {
					sb.Observe("a", uint64(v))
				}
			} else if idle++; idle > 3000 {
				th.Sim().Stop()
			}
			th.Wait()
		}
	})

	// The testbench is lint-gated like any other design: an elaboration
	// hazard (a future refactor leaving a port unbound, say) surfaces as
	// one structured error instead of a 3000-cycle idle timeout.
	if err := LintThenRun(s, func() error {
		s.Run(sim.Time(uint64(messages)*1_000_000 + 100_000_000))
		return nil
	}); err != nil {
		return StallHuntResult{Errors: []string{err.Error()}}
	}
	if inspect != nil {
		inspect(s)
	}
	return StallHuntResult{
		Errors:        sb.Drain(),
		TimingStates:  cov.Distinct(),
		CornerCovered: cov.Count("corner") > 0,
		Delivered:     delivered,
	}
}
