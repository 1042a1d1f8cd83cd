package connections

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// stallProbs are the probabilities the stream is checked at: the
// benchmark's 0.05, the stall hunt's 0.3, others between, and the
// extremes of (0,1).
var stallProbs = []float64{1e-9, 0.05, 0.1, 0.25, 0.3, 0.4, math.Nextafter(1, 0)}

// stallSeeds are the seeds the stream is checked at: 0 and the value
// math/rand substitutes for it, ±1, ±(2³¹−1) and multiples of it (all of
// which math/rand reduces to 0), the int64 extremes and 200 random
// seeds of either sign.
func stallSeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, int32max, -int32max, 2 * int32max, -5 * int32max,
		int32max * (math.MaxInt64 / int32max), math.MinInt64, math.MaxInt64}
	r := rand.New(rand.NewSource(20261020))
	for i := 0; i < 200; i++ {
		s := r.Int63()
		if i%2 == 1 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestStallStreamMatchesMathRand compares every draw of the stream with
// math/rand's Float64 from the same seed, as a value and as a stall at
// each of stallProbs: 1000 draws at each seed, more than 2·10⁵ in all,
// and 10⁶ at one seed so the register wraps many times.
func TestStallStreamMatchesMathRand(t *testing.T) {
	thresh := make([]uint64, len(stallProbs))
	for i, p := range stallProbs {
		thresh[i] = stallThreshold(p)
	}
	check := func(seed int64, n int) {
		s, ref := newStallStream(seed, 0), rand.New(rand.NewSource(seed))
		tap, feed := s.tap, s.feed
		for d := 0; d < n; d++ {
			var x uint64
			x, tap, feed = s.draw(tap, feed)
			f := ref.Float64()
			if float64(int64(x))/(1<<63) != f {
				t.Fatalf("seed %d draw %d: %d/2⁶³, math/rand %v", seed, d, x, f)
			}
			for i, p := range stallProbs {
				if (x < thresh[i]) != (f < p) {
					t.Fatalf("seed %d draw %d p=%v: stall %v, math/rand %v", seed, d, p, x < thresh[i], f < p)
				}
			}
		}
	}
	for _, seed := range stallSeeds() {
		check(seed, 1000)
	}
	check(12345, 1_000_000)
}

// TestStallThresholdBoundary checks the threshold against the
// comparison it replaces on both sides of the boundary: the draw below
// it is below p and the draw at it is not, at stallProbs and at values
// outside (0,1), where every draw stalls or none does.
func TestStallThresholdBoundary(t *testing.T) {
	below := func(x uint64, p float64) bool { return float64(int64(x))/(1<<63) < p }
	for _, p := range stallProbs {
		th := stallThreshold(p)
		if th == 0 || th >= keepLimit {
			t.Fatalf("p=%v: threshold %d outside (0, keepLimit)", p, th)
		}
		if !below(th-1, p) || below(th, p) {
			t.Errorf("p=%v: threshold %d is not the boundary: below(t-1)=%v below(t)=%v",
				p, th, below(th-1, p), below(th, p))
		}
	}
	for _, c := range []struct {
		p    float64
		want uint64
	}{
		{0.5, 1<<62 - 256}, // float64 rounds 2⁶²−256 up to 2⁶²
		{0, 0},
		{-0.2, 0},
		{math.NaN(), 0},
		{1, keepLimit},
		{1.5, keepLimit},
		{math.Inf(1), keepLimit},
	} {
		if got := stallThreshold(c.p); got != c.want {
			t.Errorf("stallThreshold(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	// The last kept draw is still below 1; the first resampled one would
	// read as 1.
	if !below(keepLimit-1, 1) || below(keepLimit, 1) {
		t.Errorf("keepLimit %d is not where Float64 starts to round to 1", uint64(keepLimit))
	}
}

// TestStallStreamResamples crafts a register whose next step gives the
// least draw Float64 would round to 1: the stream must skip it, as
// Float64 draws again, and take the next two steps as the edge's valid
// and ready draws. The top bit of a word is masked off, as Int63 does.
func TestStallStreamResamples(t *testing.T) {
	s := &stallStream{feed: rngLen - rngTap, thresh: stallThreshold(0.5)}
	// Steps read vec[feed−1] + vec[tap−1] from tap 0 and feed 334.
	s.vec[606] = keepLimit     // resampled
	s.vec[605] = keepLimit - 1 // kept: valid open
	s.vec[604] = 1<<63 | 5     // 5 after the mask: ready withheld
	valid, ready, stalls := s.roll(1, true, false)
	if valid || !ready || stalls != 1 {
		t.Errorf("roll = valid %v ready %v stalls %d, want false true 1", valid, ready, stalls)
	}
	if s.tap != rngLen-3 || s.feed != rngLen-rngTap-3 {
		t.Errorf("after three steps tap=%d feed=%d, want %d and %d", s.tap, s.feed, rngLen-3, rngLen-rngTap-3)
	}
	if s.vec[rngLen-rngTap-1] != keepLimit || s.vec[rngLen-rngTap-3] != 1<<63|5 {
		t.Error("a resampled step did not write its sum back")
	}
}

// TestStallBlockResamples crafts a register whose ninth step, inside
// the first block of a long roll, gives a draw Float64 resamples. The
// long roll must undo that block and end where forty one-edge rolls of
// the same register end: the same stall bits, stall cycles, indices and
// register.
func TestStallBlockResamples(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := &stallStream{feed: rngLen - rngTap, thresh: stallThreshold(0.3)}
	for i := range a.vec {
		a.vec[i] = r.Uint64()
	}
	// Step j from tap 0 and feed 334 sums words 334−j and 607−j.
	const j = 9
	a.vec[rngLen-rngTap-j] = keepLimit - a.vec[rngLen-j]
	b := *a
	va, ra, sa := a.roll(40, false, false)
	var vb, rb bool
	var sb uint64
	for e := 0; e < 40; e++ {
		var st uint64
		vb, rb, st = b.roll(1, vb, rb)
		sb += st
	}
	if va != vb || ra != rb || sa != sb || a.tap != b.tap || a.feed != b.feed || a.vec != b.vec {
		t.Errorf("roll(40): valid %v ready %v stalls %d tap %d feed %d; 40×roll(1): %v %v %d %d %d (registers equal: %v)",
			va, ra, sa, a.tap, a.feed, vb, rb, sb, b.tap, b.feed, a.vec == b.vec)
	}
	if a.tap != rngLen-81 {
		t.Errorf("tap %d after 81 steps, want %d", a.tap, rngLen-81)
	}
}

// TestFNV64aMatchesHashFNV checks the inline name hash against hash/fnv.
func TestFNV64aMatchesHashFNV(t *testing.T) {
	for _, name := range []string{"", "a", "soc/pe[3]/inject", "soc/noc/lnk[0,1]/tx", "\xff\x00é"} {
		h := fnv.New64a()
		h.Write([]byte(name))
		if got := fnv64a(name); got != h.Sum64() {
			t.Errorf("fnv64a(%q) = %x, hash/fnv %x", name, got, h.Sum64())
		}
	}
}

// FuzzStallStream runs an idle stalled channel for n edges, reading its
// Stats after the first k, and compares its StallCycles and final stall
// bits with the rolls the WithStall contract gives (stallRolls, which
// draws math/rand directly). Idle, the channel sleeps, so each Stats
// draws its rolls in one catch-up. Any p is accepted: outside (0,1) the
// channel stalls on every edge or on none, as the contract's comparison
// does.
func FuzzStallStream(f *testing.F) {
	f.Add(int64(1), 0.05, uint16(1000), uint16(300))
	f.Add(int64(0), 0.3, uint16(607), uint16(273))
	f.Add(int64(math.MinInt64), 0.999, uint16(2000), uint16(0))
	f.Add(int64(-7), 1.5, uint16(50), uint16(10))
	f.Add(int64(3), math.NaN(), uint16(50), uint16(10))
	f.Add(int64(int32max), 1e-9, uint16(4000), uint16(4000))
	f.Fuzz(func(t *testing.T, seed int64, p float64, n, k uint16) {
		const name = "fuzz/ch"
		edges := uint64(n % 4097)
		first := uint64(k) % (edges + 1)
		valid, ready := stallRolls(name, p, seed, int(edges)+1)
		stallsTo := func(e uint64) (c uint64) {
			for i := uint64(1); i <= e; i++ {
				if valid[i] || ready[i] {
					c++
				}
			}
			return c
		}

		s := sim.New()
		defer s.Close()
		clk := s.AddClock("clk", 1000, 0)
		ch := Buffer(clk, name, 2, NewOut[int](), NewIn[int](), WithStall(p, seed))
		s.RunCycles(clk, first)
		if got, want := ch.Stats().StallCycles, stallsTo(first); got != want {
			t.Fatalf("after %d edges: StallCycles %d, contract %d", first, got, want)
		}
		s.RunCycles(clk, edges-first)
		if got, want := ch.Stats().StallCycles, stallsTo(edges); got != want {
			t.Fatalf("after %d edges: StallCycles %d, contract %d", edges, got, want)
		}
		if ch.c.stalledValid != valid[edges+1] || ch.c.stalledReady != ready[edges+1] {
			t.Fatalf("after %d edges: stall bits %v %v, contract %v %v",
				edges, ch.c.stalledValid, ch.c.stalledReady, valid[edges+1], ready[edges+1])
		}
	})
}
