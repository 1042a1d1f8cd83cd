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
// PopNB/PushNB loop would. The sporadic peer is registered before the
// blocked side, so a push or pop it makes is visible to the blocked side
// in the same edge — the bypass paths of Bypass and Combinational
// channels, and the freed skid slot behind a same-edge pop — which only
// a notify on the push or pop itself can wake.
func TestBlockingOpsMatchPolling(t *testing.T) {
	for _, kind := range []Kind{KindCombinational, KindBypass, KindPipeline, KindBuffer} {
		for _, latency := range []int{0, 2} {
			for _, stall := range []bool{false, true} {
				name := fmt.Sprintf("%s/latency=%d/stall=%v", kind, latency, stall)
				t.Run(name, func(t *testing.T) {
					for _, blockedPop := range []bool{true, false} {
						parked := blockingOpCycles(kind, latency, stall, blockedPop, true)
						polled := blockingOpCycles(kind, latency, stall, blockedPop, false)
						if !reflect.DeepEqual(parked, polled) {
							t.Fatalf("blocked pop=%v: parked side completed on cycles %v, polling on %v", blockedPop, parked, polled)
						}
					}
				})
			}
		}
	}
}

// blockingOpCycles runs a sporadic peer against a side that moves n
// messages through blocking ops (park) or polling loops, and returns the
// cycles on which that side's operations completed.
func blockingOpCycles(kind Kind, latency int, stall, blockedPop, park bool) []uint64 {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	opts := []Option{WithLatency(latency)}
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
	var done []uint64
	clk.Spawn("blocked", func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			switch {
			case blockedPop && park:
				in.Pop(th)
			case blockedPop:
				for _, ok := in.PopNB(th); !ok; _, ok = in.PopNB(th) {
					th.Wait()
				}
			case park:
				out.Push(th, i)
			default:
				for !out.PushNB(th, i) {
					th.Wait()
				}
			}
			done = append(done, th.Cycle())
		}
	})
	s.RunCycles(clk, 2000)
	return done
}
