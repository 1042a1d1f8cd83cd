package verif

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Coverage counts named events — branch arms, FSM states, timing
// interactions. It is the architectural analogue of code-coverage
// instrumentation.
type Coverage struct {
	counts map[string]uint64
}

// NewCoverage returns an empty coverage map.
func NewCoverage() *Coverage { return &Coverage{counts: map[string]uint64{}} }

// Hit records one occurrence of the named event.
func (c *Coverage) Hit(name string) { c.counts[name]++ }

// Count returns the hit count of an event.
func (c *Coverage) Count(name string) uint64 { return c.counts[name] }

// Distinct returns the number of distinct events observed.
func (c *Coverage) Distinct() int { return len(c.counts) }

// Attach surfaces the coverage map through the unified metrics registry
// at the given component path: every event appears as a metric named
// after it, polled at snapshot time. Hit stays a plain map increment, so
// attaching costs nothing during simulation.
func (c *Coverage) Attach(reg *stats.Registry, path string) {
	reg.Source(path, func(emit stats.Emit) {
		for name, n := range c.counts { //detvet:ok the registry sorts every snapshot
			emit(name, float64(n))
		}
	})
}

// Holes returns the events in `universe` that were never hit — the
// coverage holes a verification team would chase.
func (c *Coverage) Holes(universe []string) []string {
	var holes []string
	for _, u := range universe {
		if c.counts[u] == 0 {
			holes = append(holes, u)
		}
	}
	sort.Strings(holes)
	return holes
}

// Scoreboard checks an in-order stream against expectations keyed by
// flow. It reports loss (missing items at drain), duplication, and
// reorder.
type Scoreboard struct {
	expect map[string][]uint64
	errs   []string
}

// NewScoreboard returns an empty scoreboard.
func NewScoreboard() *Scoreboard { return &Scoreboard{expect: map[string][]uint64{}} }

// Expect queues the next expected value for a flow.
func (s *Scoreboard) Expect(flow string, v uint64) {
	s.expect[flow] = append(s.expect[flow], v)
}

// Observe checks an arriving value against the flow's queue head.
func (s *Scoreboard) Observe(flow string, v uint64) {
	q := s.expect[flow]
	if len(q) == 0 {
		s.errs = append(s.errs, fmt.Sprintf("flow %s: unexpected (duplicate?) value %d", flow, v))
		return
	}
	if q[0] != v {
		s.errs = append(s.errs, fmt.Sprintf("flow %s: got %d, want %d (loss or reorder)", flow, v, q[0]))
	}
	s.expect[flow] = q[1:]
}

// Drain reports items still expected — losses — plus any earlier errors.
func (s *Scoreboard) Drain() []string {
	errs := append([]string(nil), s.errs...)
	for flow, q := range s.expect { //detvet:ok errs is sorted below
		if len(q) > 0 {
			errs = append(errs, fmt.Sprintf("flow %s: %d items never arrived", flow, len(q)))
		}
	}
	sort.Strings(errs)
	return errs
}

// Failed reports whether any check failed so far.
func (s *Scoreboard) Failed() bool { return len(s.errs) > 0 }
