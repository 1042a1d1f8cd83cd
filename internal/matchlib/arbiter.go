package matchlib

import (
	"fmt"
	"math/bits"
)

// Arbiter is the 1-out-of-N round-robin selector class: it stores a
// rotating priority and its Pick method selects among requesters and
// updates the state, exactly as the MatchLib arbiter object does.
type Arbiter struct {
	n    int
	next int // index with highest priority on the next Pick
}

// NewArbiter returns a round-robin arbiter over n requesters.
func NewArbiter(n int) *Arbiter {
	if n < 1 {
		panic(fmt.Sprintf("matchlib: arbiter width %d < 1", n))
	}
	if n > 64 {
		panic(fmt.Sprintf("matchlib: arbiter width %d > 64", n))
	}
	return &Arbiter{n: n}
}

// N returns the number of requesters.
func (a *Arbiter) N() int { return a.n }

// Pick selects one requester from the request mask (bit i set means
// requester i is asserting) and advances the rotating priority past the
// grant. It returns -1 when no bit is set.
func (a *Arbiter) Pick(req uint64) int {
	req &= a.mask()
	if req == 0 {
		return -1
	}
	// The first requester at or after next, else the first from 0.
	i := bits.TrailingZeros64(req)
	if late := req >> uint(a.next) << uint(a.next); late != 0 {
		i = bits.TrailingZeros64(late)
	}
	a.next = (i + 1) % a.n
	return i
}

// PickOneHot is Pick returning a one-hot grant mask (0 when no request).
func (a *Arbiter) PickOneHot(req uint64) uint64 {
	i := a.Pick(req)
	if i < 0 {
		return 0
	}
	return 1 << uint(i)
}

// Reset restores the initial rotating priority.
func (a *Arbiter) Reset() { a.next = 0 }

func (a *Arbiter) mask() uint64 {
	if a.n == 64 {
		return ^uint64(0)
	}
	return (1 << uint(a.n)) - 1
}

// OneHotEncode returns a one-hot mask with bit idx set among n lines.
func OneHotEncode(idx, n int) uint64 {
	if idx < 0 || idx >= n || n > 64 {
		panic(fmt.Sprintf("matchlib: one-hot encode idx=%d n=%d", idx, n))
	}
	return 1 << uint(idx)
}

// OneHotDecode returns the index of the single set bit in mask, or ok=false
// when the mask is not one-hot.
func OneHotDecode(mask uint64) (idx int, ok bool) {
	if mask == 0 || mask&(mask-1) != 0 {
		return 0, false
	}
	for mask != 1 {
		mask >>= 1
		idx++
	}
	return idx, true
}

// PriorityEncode returns the index of the lowest set bit, or -1 when zero —
// the fixed-priority selector used by the src-loop crossbar structure.
func PriorityEncode(mask uint64) int {
	if mask == 0 {
		return -1
	}
	i := 0
	for mask&1 == 0 {
		mask >>= 1
		i++
	}
	return i
}
