package connections

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestBlockingOpsMatchPolling checks that a blocked Pop or Push, which
// parks on the channel's event, completes on exactly the cycle a polling
// PopNB/PushNB loop would, and that a step registered with Method, which
// parks a failed PopNB/PushNB through the port's Park and returns,
// completes on those cycles too. The sporadic peer is registered before
// the blocked side, so a push or pop it makes is visible to the blocked
// side in the same edge — the bypass paths of Bypass and Combinational
// channels, and the freed skid slot behind a same-edge pop — which only
// a notify on the push or pop itself can wake.
//
// Under ModeSignalAccurate the step runs in a thread and Park returns at
// once, and the polling loop retries at once, since each failed attempt
// has charged its own handshake Wait.
func TestBlockingOpsMatchPolling(t *testing.T) {
	for _, mode := range []Mode{ModeSimAccurate, ModeSignalAccurate} {
		for _, kind := range []Kind{KindCombinational, KindBypass, KindPipeline, KindBuffer} {
			for _, latency := range []int{0, 2} {
				for _, stall := range []bool{false, true} {
					name := fmt.Sprintf("%s/latency=%d/stall=%v", kind, latency, stall)
					if mode != ModeSimAccurate {
						name = mode.String() + "/" + name
					}
					t.Run(name, func(t *testing.T) {
						for _, blockedPop := range []bool{true, false} {
							parked := blockingOpCycles(mode, kind, latency, stall, blockedPop, sideBlocking)
							if len(parked) == 0 {
								t.Fatalf("blocked pop=%v: the blocking side moved no message", blockedPop)
							}
							if stepped := blockingOpCycles(mode, kind, latency, stall, blockedPop, sideMethod); !reflect.DeepEqual(parked, stepped) {
								t.Fatalf("blocked pop=%v: blocking side completed on cycles %v, method step on %v", blockedPop, parked, stepped)
							}
							if polled := blockingOpCycles(mode, kind, latency, stall, blockedPop, sidePolling); !reflect.DeepEqual(parked, polled) {
								t.Fatalf("blocked pop=%v: blocking side completed on cycles %v, polling on %v", blockedPop, parked, polled)
							}
						}
					})
				}
			}
		}
	}
}

// How blockingOpCycles' measured side moves its messages.
type opSide int

const (
	sideBlocking opSide = iota // Pop or Push in a thread
	sidePolling                // PopNB or PushNB in a thread, retried on the next edge after a failure
	sideMethod                 // PopNB or PushNB in a step registered with Method, parking through Park
)

// blockingOpCycles runs a sporadic peer against a side that moves n
// messages the given way, on channels of the given cost model, and
// returns the cycles on which that side's operations completed.
func blockingOpCycles(mode Mode, kind Kind, latency int, stall, blockedPop bool, side opSide) []uint64 {
	s := sim.New()
	defer s.Close()
	clk := s.AddClock("clk", 1000, 0)
	opts := []Option{WithMode(mode), WithLatency(latency)}
	if stall {
		opts = append(opts, WithStall(0.2, 5))
	}
	out, in := NewOut[int](), NewIn[int]()
	Bind(clk, "ch", kind, 2, out, in, opts...)

	const n = 40
	rng := rand.New(rand.NewSource(int64(kind)*10 + int64(latency)))
	clk.Spawn("peer", func(th *sim.Thread) {
		for i := 0; i < n; th.WaitN(1 + rng.Intn(5)) {
			if blockedPop {
				if out.PushNB(th, i) {
					i++
				}
			} else if _, ok := in.PopNB(th); ok {
				i++
			}
		}
	})
	// retry waits, after a failed attempt of the polling loop, for the
	// next edge, which a signal-accurate attempt has already waited for.
	retry := func(th *sim.Thread) {
		if mode != ModeSignalAccurate {
			th.Wait()
		}
	}
	var done []uint64
	if side == sideMethod {
		// The blocking side's loop as a step: it goes on while its
		// operations succeed and returns after parking a failed one, to
		// retry it when it next runs.
		Method(clk, "blocked", mode, func(th *sim.Thread) {
			for len(done) < n {
				if blockedPop {
					if _, ok := in.PopNB(th); !ok {
						in.Park(th)
						return
					}
				} else if !out.PushNB(th, len(done)) {
					out.Park(th)
					return
				}
				done = append(done, th.Cycle())
			}
			th.WaitOn(func() bool { return false })
		})
		s.RunCycles(clk, 2000)
		return done
	}
	clk.Spawn("blocked", func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			switch {
			case blockedPop && side == sideBlocking:
				in.Pop(th)
			case blockedPop:
				for _, ok := in.PopNB(th); !ok; _, ok = in.PopNB(th) {
					retry(th)
				}
			case side == sideBlocking:
				out.Push(th, i)
			default:
				for !out.PushNB(th, i) {
					retry(th)
				}
			}
			done = append(done, th.Cycle())
		}
	})
	s.RunCycles(clk, 2000)
	return done
}
