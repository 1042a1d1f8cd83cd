package connections

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// stallRolls returns a stalled channel's rolls for edges 1..n as the
// contract of WithStall states them: edge 1 sees no stall, and the roll
// of each later edge is two draws, valid then ready, from math/rand
// seeded with seed ^ FNV-64a(name). It is written from the contract, not
// from the channel, so that it can judge a channel that skips commits.
func stallRolls(name string, p float64, seed int64, n int) (valid, ready []bool) {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	valid, ready = make([]bool, n+1), make([]bool, n+1)
	for e := 2; e <= n; e++ {
		valid[e] = rng.Float64() < p
		ready[e] = rng.Float64() < p
	}
	return valid, ready
}

// TestSleepingChannelKeepsItsStream drives a stalled Buffer channel in
// bursts separated by idle stretches, during which it holds nothing and
// sleeps, and checks every edge of the bursts against a reference
// channel built on stallRolls: whether each push and pop succeeds and
// what each pop returns. After every burst and at the end the channel's
// StallCycles must equal the reference's count of stalled edges. The
// idle stretches run from one edge to a few hundred, and one burst
// follows no idle edge.
func TestSleepingChannelKeepsItsStream(t *testing.T) {
	for _, p := range []float64{0.05, 0.3} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("p=%v/seed=%d", p, seed), func(t *testing.T) {
				checkSleepingStream(t, p, seed)
			})
		}
	}
}

func checkSleepingStream(t *testing.T, p float64, seed int64) {
	const (
		name  = "soc/sleepy"
		depth = 3
		burst = 40 // edges a burst lasts; it pushes on all but the last drain edges
		drain = 15
	)
	idles := []int{100, 0, 1, 63, 64, 65, 200, 5}
	total := 0
	for _, idle := range idles {
		total += idle + burst
	}
	valid, ready := stallRolls(name, p, seed, total)

	s := sim.New()
	defer s.Close()
	clk := s.AddClock("clk", 1000, 0)
	out, in := NewOut[int](), NewIn[int]()
	ch := Buffer(clk, name, depth, out, in, WithStall(p, seed))
	if !ch.c.sleeps {
		t.Fatal("a disarmed sim-accurate stalled channel does not sleep")
	}

	// driven marks the edges of the bursts, the only ones on which the
	// ports act.
	driven := make([]bool, total+1)
	var bursts []int // the last edge of each burst
	e := 0
	for _, idle := range idles {
		e += idle
		for i := 1; i <= burst; i++ {
			driven[e+i] = true
		}
		e += burst
		bursts = append(bursts, e)
	}

	// Reference: a Buffer channel with one skid entry, latency 0 and no
	// bypass, judged from the contract's rolls. Its ports act on driven
	// edges only; it commits on every edge.
	var queue, skid []int
	var refStalls uint64
	type outcome struct {
		pushed, popped bool
		v              int
	}
	want := make([]outcome, total+1)
	next := 0
	for e := 1; e <= total; e++ {
		if valid[e] || ready[e] {
			refStalls++
		}
		staged := 0
		if driven[e] {
			var o outcome
			if edgeInBurst(e, bursts, burst) <= burst-drain && !ready[e] && len(skid) == 0 {
				skid = append(skid, next)
				o.pushed = true
				next++
			}
			if !valid[e] && len(queue) > 0 {
				o.popped, o.v = true, queue[0]
				staged = 1
			}
			want[e] = o
		}
		queue = queue[staged:]
		if len(skid) > 0 && len(queue) < depth {
			queue = append(queue, skid[0])
			skid = skid[1:]
		}
	}
	if len(queue)+len(skid) != 0 {
		t.Fatalf("reference ends holding %d messages: lengthen the drain", len(queue)+len(skid))
	}

	got := make([]outcome, total+1)
	var slept bool
	var stallsAt []uint64
	clk.Spawn("driver", func(th *sim.Thread) {
		sent := 0
		for e := 1; e <= total; e++ {
			if driven[e] {
				// A channel that committed on the last edge has
				// accounted it; one that slept lags behind.
				if ch.c.synced < clk.Committed() {
					slept = true
				}
				var o outcome
				if edgeInBurst(e, bursts, burst) <= burst-drain {
					// Alternate the producer-side entries: Full then
					// PushNB, or PushNB alone.
					if e%2 == 0 && out.Full() {
						out.PushNB(th, -1) // must fail as Full said
					} else if out.PushNB(th, sent) {
						o.pushed = true
						sent++
					}
				}
				o.v, o.popped = in.PopNB(th)
				got[e] = o
			}
			for _, b := range bursts {
				if e == b {
					stallsAt = append(stallsAt, in.Stats().StallCycles)
				}
			}
			th.Wait()
		}
	})
	s.RunCycles(clk, uint64(total))
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !slept {
		t.Fatal("the channel never slept through an idle stretch: the test is vacuous")
	}
	for e := 1; e <= total; e++ {
		if got[e] != want[e] {
			t.Fatalf("edge %d: pushed=%v popped=%v (%d), reference pushed=%v popped=%v (%d)",
				e, got[e].pushed, got[e].popped, got[e].v, want[e].pushed, want[e].popped, want[e].v)
		}
	}
	// Stats read in a burst's last thread phase covers the edges before it.
	for i, b := range bursts {
		var ref uint64
		for e := 1; e < b; e++ {
			if valid[e] || ready[e] {
				ref++
			}
		}
		if stallsAt[i] != ref {
			t.Fatalf("StallCycles before edge %d = %d, reference %d", b, stallsAt[i], ref)
		}
	}
	if st := ch.Stats(); st.StallCycles != refStalls || st.Cycles != uint64(total) {
		t.Fatalf("after %d edges: StallCycles=%d Cycles=%d, reference %d and %d",
			total, st.StallCycles, st.Cycles, refStalls, total)
	}
}

// edgeInBurst returns e's position (1-based) in the burst that holds it,
// given each burst's last edge.
func edgeInBurst(e int, bursts []int, burst int) int {
	for _, b := range bursts {
		if e <= b {
			return e - (b - burst)
		}
	}
	return 0
}

// TestNeverPushedChannelIsNeverSeeded checks that a stalled channel
// nobody pushes into costs nothing while the clock runs: its stream is
// never seeded and it never commits. Stats still reports what a channel
// committing on every edge would have: every edge, and the stall cycles
// of the whole stream.
func TestNeverPushedChannelIsNeverSeeded(t *testing.T) {
	const name, p, seed, n = "soc/idle", 0.3, 3, 500
	s := sim.New()
	defer s.Close()
	clk := s.AddClock("clk", 1000, 0)
	_, _, ch := Connect[int](clk, name, KindBuffer, 2, WithStall(p, seed))
	// A busy neighbour keeps the clock's edges from being skipped.
	out, in, _ := Connect[int](clk, "soc/busy", KindBuffer, 2)
	clk.Spawn("busy", func(th *sim.Thread) {
		for i := 0; ; i++ {
			out.Push(th, i)
			in.Pop(th)
			th.Wait()
		}
	})
	s.RunCycles(clk, n)
	c := ch.c
	if c.rng != nil {
		t.Fatal("a never-pushed stalled channel seeded its stream")
	}
	if c.stats.Cycles != 0 || c.synced != 0 {
		t.Fatalf("a never-pushed stalled channel committed: Cycles=%d synced=%d", c.stats.Cycles, c.synced)
	}
	valid, ready := stallRolls(name, p, seed, n)
	var want uint64
	for e := 1; e <= n; e++ {
		if valid[e] || ready[e] {
			want++
		}
	}
	if st := ch.Stats(); st.Cycles != n || st.StallCycles != want {
		t.Fatalf("Stats after %d edges: Cycles=%d StallCycles=%d, want %d and %d", n, st.Cycles, st.StallCycles, n, want)
	}
}

// TestParkedProducerWakesWhenReadyStallLifts parks a producer on an
// empty, sleeping channel at an edge whose ready is stalled and stays
// stalled on the next edge, and checks that its push completes on the
// first later edge the contract's rolls leave ready open. The channel
// holds nothing, so only the push-park predicate can keep it committing
// through the stall; without that, the commit that lifts the stall never
// runs, nothing notifies, and the producer waits forever. It is checked
// with a blocking Push in a thread and with a Method step that parks
// through Out.Park.
func TestParkedProducerWakesWhenReadyStallLifts(t *testing.T) {
	const name, p, seed, n = "soc/parked", 0.7, 2, 600
	_, ready := stallRolls(name, p, seed, n)
	// start: an edge after a long sleep whose ready stall lasts at least
	// two edges.
	start := 0
	for e := 100; e < n-50; e++ {
		if ready[e] && ready[e+1] {
			start = e
			break
		}
	}
	if start == 0 {
		t.Fatal("no two-edge ready stall in the stream")
	}
	want := start + 1
	for ready[want] {
		want++
	}
	for _, method := range []bool{false, true} {
		t.Run(fmt.Sprintf("method=%v", method), func(t *testing.T) {
			s := sim.New()
			defer s.Close()
			clk := s.AddClock("clk", 1000, 0)
			out, _, _ := Connect[int](clk, name, KindBuffer, 2, WithStall(p, seed))
			done := uint64(0)
			if method {
				Method(clk, "producer", ModeSimAccurate, func(th *sim.Thread) {
					switch {
					case done != 0:
						th.WaitOn(func() bool { return false })
					case th.Cycle() < uint64(start):
						th.WaitN(start - int(th.Cycle()))
					case !out.PushNB(th, 1):
						out.Park(th)
					default:
						done = th.Cycle()
					}
				})
			} else {
				clk.Spawn("producer", func(th *sim.Thread) {
					th.WaitN(start - 1)
					out.Push(th, 1)
					done = th.Cycle()
				})
			}
			s.RunCycles(clk, n)
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			if done != uint64(want) {
				t.Fatalf("push parked at edge %d completed on edge %d, want %d (the first edge with ready open)", start, done, want)
			}
		})
	}
}
