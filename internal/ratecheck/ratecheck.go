// Package ratecheck is the static communication-rate analysis: the SDF
// (synchronous dataflow) sibling of the structural lint pass. Where
// internal/lint checks the shape of the elaborated channel/clock graph,
// ratecheck checks its arithmetic: declared token production and
// consumption rates are propagated through the graph, balance equations
// are solved per clock domain with exact rational arithmetic, and the
// pass reports rate mismatches, minimal buffer sizes versus declared
// capacities, and steady-state throughput upper bounds — all before a
// single cycle is simulated.
//
// Rules:
//
//	RATE-1  SDF balance equations are inconsistent around a channel cycle (error)
//	RATE-2  declared services make a channel starved or flooded (warning)
//	RATE-3  channel or crossing buffer below the minimal depth (warning)
//	RATE-4  buffer capacity far above the minimal depth (warning; fires
//	        only on explicitly rated endpoints, never on defaults)
//
// Every input is opt-in, mirroring lint: actors are declared with
// sim.Design.DeclareActor, endpoint rates with the Rated chain on
// connections ports, and undeclared structure is treated as
// unconstrained — so shipped designs that never declare rates produce
// no diagnostics, only the sound default bounds (one token per cycle
// per channel: the LI channel commits at most one message per clock
// edge, whatever the payload).
//
// Soundness contract: every reported bound is an upper bound on what
// the dynamic simulation can do. A verif test runs the stall-hunter, a
// NoC mesh, a GALS crossing and a serdes chain and asserts that the
// measured transfers and occupancy never exceed the static numbers.
package ratecheck

import (
	"fmt"

	"repro/internal/lint"
	"repro/internal/sim"
)

// ChannelReport is the per-channel slice of the analysis. Only notable
// channels are listed — those with explicit rates, a non-default bound,
// or a buffer-size finding; every unlisted channel has the default
// hardware bound (one token per cycle) and minimal depth 1.
type ChannelReport struct {
	Name     string  `json:"name"`
	Clock    string  `json:"clock"`
	Capacity int     `json:"capacity"`  // declared depth (runtime clamps to >= 1)
	MinDepth int     `json:"min_depth"` // p + c - gcd(p, c) for rated endpoints
	Bound    sim.Rat `json:"bound"`     // tokens per cycle, upper bound
}

// DomainReport is the steady-state throughput summary of one clock
// domain: the tightest per-channel bound among its channels, in tokens
// per cycle and tokens per nanosecond.
type DomainReport struct {
	Clock    string  `json:"clock"`
	PeriodPS uint64  `json:"period_ps"`
	Channels int     `json:"channels"`
	Bound    sim.Rat `json:"bound"`        // tokens per cycle
	BoundNS  sim.Rat `json:"bound_per_ns"` // tokens per nanosecond
}

// CrossingReport bounds one CDC synchronizer: a dual-clock FIFO moves at
// most one token per cycle of its slower side, whatever its style.
type CrossingReport struct {
	Name     string  `json:"name"`
	Style    string  `json:"style"`
	Prod     string  `json:"prod_clock"`
	Cons     string  `json:"cons_clock"`
	Depth    int     `json:"depth"`
	MinDepth int     `json:"min_depth"`
	BoundNS  sim.Rat `json:"bound_per_ns"` // tokens per nanosecond
}

// Result is the outcome of one rate-analysis pass.
type Result struct {
	lint.Diags

	Channels  []ChannelReport
	Domains   []DomainReport
	Crossings []CrossingReport

	// EndToEnd is the steady-state bound through the CDC crossing chain:
	// the tightest crossing bound, in tokens per nanosecond. Nil when the
	// design has no crossings.
	EndToEnd *sim.Rat

	// What the elaborated design graph contained.
	TotalChannels int
	ActorsSDF     int
	ActorsSwitch  int
	RatedPorts    int
}

func (r *Result) add(d lint.Diag) { r.Diags = append(r.Diags, d) }

// Summary renders the one-line pass/fail overview.
func (r *Result) Summary() string {
	return fmt.Sprintf("rateck: %d channels (%d reported), %d sdf + %d switch actors, %d rated ports, %d crossings: %d errors, %d warnings",
		r.TotalChannels, len(r.Channels), r.ActorsSDF, r.ActorsSwitch, r.RatedPorts, len(r.Crossings), r.Errors(), r.Warnings())
}

// Err returns nil when the result has no error-severity diagnostics, and
// otherwise an error naming the first one — the fail-fast hook for
// rate-gated runs.
func (r *Result) Err() error {
	for _, d := range r.Diags {
		if d.Severity == lint.SevError {
			more := ""
			if n := r.Errors(); n > 1 {
				more = fmt.Sprintf(" (and %d more)", n-1)
			}
			return fmt.Errorf("rateck: %s %s: %s%s", d.Rule, d.Path, d.Message, more)
		}
	}
	return nil
}

// ChannelBound returns the static tokens-per-cycle bound for the named
// channel: the reported bound when the channel is listed, else the
// hardware port limit of one token per cycle. It is never above one.
func (r *Result) ChannelBound(name string) sim.Rat {
	for _, c := range r.Channels {
		if c.Name == name {
			return c.Bound
		}
	}
	return one
}

// ChannelMinDepth returns the minimal buffer depth recommended for the
// named channel (1 when the channel is not listed).
func (r *Result) ChannelMinDepth(name string) int {
	for _, c := range r.Channels {
		if c.Name == name {
			return c.MinDepth
		}
	}
	return 1
}

// Check elaborates the simulator's design side table and runs the rate
// analysis. Like lint.Check it never starts the simulation; a design
// that is built and checked but not run pays only the construction-time
// appends.
func Check(s *sim.Simulator) *Result {
	d := s.Design()
	r := &Result{TotalChannels: len(d.Channels())}

	actors := d.Actors()
	actorAt := make(map[string]int, len(actors))
	for i, a := range actors {
		actorAt[a.Path] = i
		if a.Class == sim.ActorSDF {
			r.ActorsSDF++
		} else {
			r.ActorsSwitch++
		}
	}
	for _, p := range d.Ports() {
		if !p.Rate.IsZero() {
			r.RatedPorts++
		}
	}

	edges := collectEdges(d, actorAt)
	checkBalance(r, actors, edges)
	checkSupplyDemand(r, actors, edges)
	chanFindings := checkBuffers(r, d)
	reportChannels(r, d, actors, actorAt, chanFindings)
	reportDomains(r, s)
	reportCrossings(r, d)
	r.Diags.Sort()
	return r
}

// checkBuffers runs RATE-3 and RATE-4 over every channel with two
// declared endpoints and over every synchronizer, returning the set of
// channels with a buffer-size finding (they must be listed in the
// report even if otherwise unremarkable).
func checkBuffers(r *Result, d *sim.Design) map[string]bool {
	flagged := map[string]bool{}
	for _, c := range d.Channels() {
		if c.Prod == nil || c.Cons == nil {
			continue
		}
		p, cc := portRate(c.Prod), portRate(c.Cons)
		if p.Den != 1 || cc.Den != 1 {
			// Fractional tokens per firing have no p+c-gcd depth bound.
			continue
		}
		min := minDepth(p.Num, cc.Num)
		cap := c.Capacity
		if cap < 1 {
			cap = 1 // the runtime clamps; CON-3 already flags the decl
		}
		explicit := !c.Prod.Rate.IsZero() && !c.Cons.Rate.IsZero()
		if cap < min {
			flagged[c.Name] = true
			r.add(lint.Diag{
				Rule: "RATE-3", Severity: lint.SevWarning, Path: c.Name,
				Message: fmt.Sprintf("capacity %d is below the minimal depth %d for rates %s -> %s (one firing bursts more than the buffer holds)",
					cap, min, p, cc),
				Hint: fmt.Sprintf("resize the FIFO to at least %d, or lower the producer burst", min),
			})
		} else if explicit && min >= 1 && cap > 8*min {
			flagged[c.Name] = true
			r.add(lint.Diag{
				Rule: "RATE-4", Severity: lint.SevWarning, Path: c.Name,
				Message: fmt.Sprintf("capacity %d is more than 8x the minimal depth %d for rates %s -> %s",
					cap, min, p, cc),
				Hint: "an over-provisioned FIFO costs area without throughput; shrink it or declare why the slack is needed",
			})
		}
	}
	for _, sy := range d.Syncs() {
		if sy.Depth < 2 {
			r.add(lint.Diag{
				Rule: "RATE-3", Severity: lint.SevWarning, Path: sy.Name,
				Message: fmt.Sprintf("%s crossing depth %d cannot cover the pointer round trip; throughput degrades to one token per round trip", sy.Style, sy.Depth),
				Hint:    "use depth >= 2 so one side can keep filling while the other drains",
			})
		}
	}
	return flagged
}

// minDepth is the classic SDF buffer bound for integral rates: a channel
// between actors producing p and consuming c tokens per firing needs at
// least p + c - gcd(p, c) slots to admit a periodic schedule.
func minDepth(p, c int64) int {
	return int(p + c - igcd(p, c))
}

// portRate returns the endpoint's declared rate, defaulting to one token
// per firing.
func portRate(p *sim.PortDecl) sim.Rat {
	if p == nil || p.Rate.IsZero() {
		return one
	}
	return p.Rate
}

// reportChannels computes every channel's throughput bound and lists the
// notable ones: explicit rates, a non-default bound, or a buffer-size
// finding.
func reportChannels(r *Result, d *sim.Design, actors []*sim.ActorDecl, actorAt map[string]int, flagged map[string]bool) {
	for _, c := range d.Channels() {
		bound := one
		explicit := false
		for _, end := range []*sim.PortDecl{c.Prod, c.Cons} {
			if end == nil {
				continue
			}
			if !end.Rate.IsZero() {
				explicit = true
			}
			if i, ok := actorAt[end.Path]; ok {
				a := actors[i]
				if a.Class == sim.ActorSDF && !a.Service.IsZero() {
					bound = ratMin(bound, ratMul(a.Service, portRate(end)))
				}
			}
		}
		if !explicit && !flagged[c.Name] && ratCmp(bound, one) == 0 {
			continue
		}
		p, cc := portRate(c.Prod), portRate(c.Cons)
		min := 1
		if c.Prod != nil && c.Cons != nil && p.Den == 1 && cc.Den == 1 {
			min = minDepth(p.Num, cc.Num)
		}
		cap := c.Capacity
		if cap < 1 {
			cap = 1
		}
		r.Channels = append(r.Channels, ChannelReport{
			Name: c.Name, Clock: c.Clock.Name(), Capacity: cap,
			MinDepth: min, Bound: bound,
		})
	}
}

// reportDomains summarizes each clock domain that owns channels: the
// tightest channel bound, in tokens per cycle and per nanosecond.
func reportDomains(r *Result, s *sim.Simulator) {
	d := s.Design()
	for _, clk := range s.Clocks() {
		n := 0
		bound := one
		for _, c := range d.Channels() {
			if c.Clock != clk {
				continue
			}
			n++
			bound = ratMin(bound, r.ChannelBound(c.Name))
		}
		if n == 0 {
			continue
		}
		period := uint64(clk.Period())
		r.Domains = append(r.Domains, DomainReport{
			Clock: clk.Name(), PeriodPS: period, Channels: n,
			Bound:   bound,
			BoundNS: perNS(bound, period),
		})
	}
}

// reportCrossings bounds each synchronizer at one token per slow-side
// cycle and derives the end-to-end bound as the tightest crossing.
func reportCrossings(r *Result, d *sim.Design) {
	for _, sy := range d.Syncs() {
		slow := uint64(sy.Prod.Period())
		if p := uint64(sy.Cons.Period()); p > slow {
			slow = p
		}
		rep := CrossingReport{
			Name: sy.Name, Style: sy.Style,
			Prod: sy.Prod.Name(), Cons: sy.Cons.Name(),
			Depth: sy.Depth, MinDepth: 2,
			BoundNS: perNS(one, slow),
		}
		r.Crossings = append(r.Crossings, rep)
		if r.EndToEnd == nil || ratCmp(rep.BoundNS, *r.EndToEnd) < 0 {
			b := rep.BoundNS
			r.EndToEnd = &b
		}
	}
}

// perNS converts a tokens-per-cycle bound on a clock of the given period
// (in picoseconds) to tokens per nanosecond.
func perNS(bound sim.Rat, periodPS uint64) sim.Rat {
	return ratMul(bound, ratNew(1000, int64(periodPS)))
}
