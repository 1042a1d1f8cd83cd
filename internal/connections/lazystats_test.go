package connections

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestLazyStatsContract pins what Stats reports, wherever it is read:
// Cycles is the number of commit phases the channel's clock completed
// since bind, and OccupancySum is the running sum of the committed
// occupancy each of those commits started from. The reference is kept
// eagerly by a monitor hook; the channel itself may account idle edges
// however it likes. Producer and consumer are sporadic so the channel
// sits idle, full and half-full for stretches, and the clock runs a few
// edges before bind so "since bind" is tested too.
func TestLazyStatsContract(t *testing.T) {
	for _, kind := range []Kind{KindCombinational, KindBypass, KindPipeline, KindBuffer} {
		for _, latency := range []int{0, 2} {
			for _, stall := range []bool{false, true} {
				name := fmt.Sprintf("%s/latency=%d/stall=%v", kind, latency, stall)
				t.Run(name, func(t *testing.T) {
					checkLazyStats(t, kind, latency, stall)
				})
			}
		}
	}
}

func checkLazyStats(t *testing.T, kind Kind, latency int, stall bool) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	s.RunCycles(clk, 3)

	opts := []Option{WithLatency(latency)}
	if stall {
		opts = append(opts, WithStall(0.3, 11))
	}
	out, in := NewOut[int](), NewIn[int]()
	ch := Bind(clk, "ch", kind, 3, out, in, opts...)

	// done and sum are the eager reference: commit phases completed since
	// bind, and the committed occupancy each one started from. check runs
	// inside thread bodies, which must not call t.Fatal, so it keeps the
	// first mismatch for the end of the test.
	var done, sum, occ uint64
	var mismatch string
	check := func(where string, got Stats) {
		if mismatch == "" && (got.Cycles != done || got.OccupancySum != sum) {
			mismatch = fmt.Sprintf("%s at cycle %d: Cycles=%d OccupancySum=%d, want %d and %d",
				where, clk.Cycle(), got.Cycles, got.OccupancySum, done, sum)
		}
	}
	clk.AtMonitorNamed("check", func() {
		done++
		sum += occ
		occ = uint64(ch.Occupancy())
		check("monitor", ch.Stats())
	})

	const n = 60
	rng := rand.New(rand.NewSource(int64(kind)*10 + int64(latency)))
	clk.Spawn("producer", func(th *sim.Thread) {
		for i := 0; i < n; {
			switch rng.Intn(4) {
			case 0:
				out.Push(th, i)
				i++
			case 1:
				if out.PushNB(th, i) {
					i++
				}
			default:
				th.WaitN(1 + rng.Intn(6))
				continue
			}
			check("producer", out.Stats())
			th.Wait()
		}
	})
	got := 0
	clk.Spawn("consumer", func(th *sim.Thread) {
		for got < n {
			switch rng.Intn(4) {
			case 0:
				in.Pop(th)
				got++
			case 1:
				if _, ok := in.PopNB(th); ok {
					got++
				}
			default:
				th.WaitN(1 + rng.Intn(9))
				continue
			}
			check("consumer", in.Stats())
			th.Wait()
		}
	})
	clk.Spawn("reader", func(th *sim.Thread) {
		for {
			check("reader", ch.Stats())
			th.Wait()
		}
	})
	s.RunCycles(clk, 2000)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("consumer received %d of %d", got, n)
	}
	check("after run", ch.Stats())
	if mismatch != "" {
		t.Fatal(mismatch)
	}
	if done != 2000 {
		t.Fatalf("monitor saw %d edges, want 2000", done)
	}
}
