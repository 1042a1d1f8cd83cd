package connections

import "math/rand"

// stallStream is a channel's stall-injection stream: math/rand's source
// seeded with seed, read as math/rand's Rand.Float64() < p, value for
// value. It is a copy of that source (rngSource in math/rand's rng.go),
// an additive lagged Fibonacci generator over a 607-word register, with
// the comparison against p reduced to one against an integer threshold,
// so a draw costs an add, a store and a compare rather than an
// interface call and a float conversion.
type stallStream struct {
	tap, feed int    // rngSource's indices into vec
	thresh    uint64 // a kept draw stalls when it is below thresh
	vec       [rngLen]uint64
}

// math/rand's source constants.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// keepLimit bounds the draws Float64 keeps: an Int63 value at or above
	// it converts to 2⁶³ exactly, Float64 would return 1, and it draws
	// again instead.
	keepLimit = 1<<63 - 512
)

// rngCooked is math/rand's table of cooked seed words: rngSource.Seed
// XORs word i into the register's word i after the Park–Miller words.
var rngCooked = cookedTable()

// cookedTable recovers rngCooked from math/rand's own source seeded with
// 1. Its first 607 outputs determine the seeded register: output k
// (from 1) is register word 334−k (mod 607) plus either word 607−k, for
// k ≤ 273, or output k−273, since each later output reads a word an
// earlier one wrote. XORing off seed 1's Park–Miller words leaves the
// table.
func cookedTable() *[rngLen]uint64 {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64 // out[k] is output k
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	var vec [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		vec[(rngLen+rngLen-rngTap-k)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[rngLen-rngTap-k] = out[k] - vec[rngLen-k]
	}
	seedWords(&vec, 1)
	return &vec
}

// seedWords XORs into vec the Park–Miller words that rngSource.Seed
// derives from seed. Seed reduces the seed mod 2³¹−1 (0 becomes
// 89482311), steps x ← 48271·x mod 2³¹−1 twenty times, then builds word
// i from the next three steps as x₁<<40 ^ x₂<<20 ^ x₃. The three steps
// of every word are run here as three chains, each stepping by 48271³,
// so they do not wait on one another.
func seedWords(vec *[rngLen]uint64, seed int64) {
	x := seed % int32max
	if x < 0 {
		x += int32max
	}
	if x == 0 {
		x = 89482311
	}
	a := mulMod(uint64(x), pmPow21)
	b := mulMod(a, pmMul)
	c := mulMod(b, pmMul)
	for i := range vec {
		vec[i] ^= a<<40 ^ b<<20 ^ c
		a, b, c = mulMod(a, pmMul3), mulMod(b, pmMul3), mulMod(c, pmMul3)
	}
}

// The Park–Miller multiplier, its cube (one step of each chain) and its
// 21st power (the twenty skipped steps and the first word's first step),
// all mod 2³¹−1.
const pmMul = 48271

var (
	pmMul3  = powMod(pmMul, 3)
	pmPow21 = powMod(pmMul, 21)
)

// mulMod returns a·x mod 2³¹−1 for a, x < 2³¹−1 by Mersenne reduction:
// 2³¹ ≡ 1, so the product's high and low 31 bits add to less than
// twice the modulus.
func mulMod(a, x uint64) uint64 {
	p := a * x
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

func powMod(a uint64, n int) uint64 {
	r := uint64(1)
	for ; n > 0; n-- {
		r = mulMod(r, a)
	}
	return r
}

// newStallStream returns the stream of math/rand's source seeded with
// seed, drawn against probability p.
func newStallStream(seed int64, p float64) *stallStream {
	s := &stallStream{feed: rngLen - rngTap, thresh: stallThreshold(p), vec: *rngCooked}
	seedWords(&s.vec, seed)
	return s
}

// stallThreshold returns the least kept draw x for which Float64's value
// float64(x)/2⁶³ is not below p, or keepLimit when every kept draw is:
// a kept draw x stalls exactly when x < stallThreshold(p). The value is
// monotone in x, so a binary search finds the boundary; a NaN p, which
// no value is below, gives 0.
func stallThreshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(keepLimit)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// draw returns the next draw that Float64 keeps and the indices stepped
// past it. Each step is rngSource.Uint64 masked to 63 bits, as Int63.
func (s *stallStream) draw(tap, feed int) (uint64, int, int) {
	for {
		tap--
		if tap < 0 {
			tap += rngLen
		}
		feed--
		if feed < 0 {
			feed += rngLen
		}
		x := s.vec[feed] + s.vec[tap]
		s.vec[feed] = x
		if x &= rngMask; x < keepLimit {
			return x, tap, feed
		}
	}
}

// roll advances the stream by n edges from the stall bits valid and
// ready: each edge counts a stall cycle when either bit is set, then
// draws the next valid and ready bits. It returns the final bits and the
// stall cycles counted. A catch-up over many edges runs in blocks (see
// block); the rest, and a block that holds a draw Float64 resamples,
// goes one edge at a time.
func (s *stallStream) roll(n uint64, valid, ready bool) (bool, bool, uint64) {
	tap, feed, t := s.tap, s.feed, s.thresh
	var stalls uint64
	for n > 0 {
		// The edges before tap or feed wraps, up to a block.
		k := min(n, uint64(min(tap, feed)/2), maxBlock)
		if k >= minBlock {
			if v, r, st, ok := s.block(tap, feed, int(k), valid, ready); ok {
				valid, ready, stalls = v, r, stalls+st
				tap, feed, n = tap-2*int(k), feed-2*int(k), n-k
				continue
			}
		}
		for k = max(k, 1); k > 0; k-- {
			if valid || ready {
				stalls++
			}
			var x uint64
			x, tap, feed = s.draw(tap, feed)
			valid = x < t
			x, tap, feed = s.draw(tap, feed)
			ready = x < t
			n--
		}
	}
	s.tap, s.feed = tap, feed
	return valid, ready, stalls
}

// Blocks span minBlock to maxBlock edges. tap runs rngTap words ahead of
// feed (mod rngLen), so up to rngTap steps that do not wrap read no word
// they write: the block's two windows of the register are disjoint.
const (
	minBlock = 4
	maxBlock = rngTap / 2
)

// block rolls k edges, 2k steps, from tap and feed, neither of which the
// steps wrap, as roll does one edge at a time, but without a branch per
// edge. It reports false and leaves the register as it was when a step
// gives a draw that Float64 resamples: that moves every later draw to
// another edge.
func (s *stallStream) block(tap, feed, k int, valid, ready bool) (bool, bool, uint64, bool) {
	m := 2 * k
	fv, tv := s.vec[feed-m:feed], s.vec[tap-m:tap]
	t := s.thresh
	var cur uint64 // 1 when the current roll stalls
	if valid || ready {
		cur = 1
	}
	// Step j (from 1) writes fv[m−j]. x and y are below 2⁶³, so the top
	// bit of x−t is set exactly when x < t, and that of keepLimit−1−x
	// exactly when x ≥ keepLimit.
	var stalls, over, x, y uint64
	for i := m - 1; i > 0; i -= 2 {
		x = fv[i] + tv[i]
		fv[i] = x
		y = fv[i-1] + tv[i-1]
		fv[i-1] = y
		x, y = x&rngMask, y&rngMask
		over |= (keepLimit - 1 - x) | (keepLimit - 1 - y)
		stalls += cur
		cur = ((x - t) | (y - t)) >> 63
	}
	if over>>63 != 0 {
		for i := range fv {
			fv[i] -= tv[i]
		}
		return valid, ready, 0, false
	}
	return x < t, y < t, stalls, true
}

// fnv64a is FNV-1a's 64-bit hash of name, as hash/fnv's New64a computes
// it.
func fnv64a(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
