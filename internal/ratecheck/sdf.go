package ratecheck

import (
	"fmt"

	"repro/internal/lint"
	"repro/internal/sim"
)

// The SDF balance solver. An edge joins two declared SDF actors through
// one bound channel; each firing of the producer pushes p tokens and
// each firing of the consumer pops c tokens. A steady-state (periodic)
// schedule exists only if there is a repetition vector q with
// q[prod]*p == q[cons]*c on every edge. Tree edges of the channel graph
// always admit one (the solver just propagates ratios); an inconsistent
// assignment can only surface where an edge closes a cycle, and that
// closing channel — in declaration order — anchors the RATE-1 error.

// edge is one SDF channel between two declared SDF actors.
type edge struct {
	ch         *sim.ChannelDecl
	prod, cons int     // indices into the design's actor list
	p, c       sim.Rat // tokens per firing at each end
}

// collectEdges gathers channels whose declared endpoints both belong to
// SDF actors. Switch actors and undeclared components break the SDF
// region on purpose: their token movement is data-dependent, so no
// balance equation may cross them.
func collectEdges(d *sim.Design, actorAt map[string]int) []edge {
	actors := d.Actors()
	var edges []edge
	for _, c := range d.Channels() {
		if c.Prod == nil || c.Cons == nil {
			continue
		}
		pi, ok := actorAt[c.Prod.Path]
		if !ok || actors[pi].Class != sim.ActorSDF {
			continue
		}
		ci, ok := actorAt[c.Cons.Path]
		if !ok || actors[ci].Class != sim.ActorSDF {
			continue
		}
		edges = append(edges, edge{
			ch: c, prod: pi, cons: ci,
			p: portRate(c.Prod), c: portRate(c.Cons),
		})
	}
	return edges
}

// checkBalance solves the balance equations over the SDF edges and adds
// a RATE-1 error for every edge whose constraint contradicts the
// repetition ratios already forced by earlier edges.
func checkBalance(r *Result, actors []*sim.ActorDecl, edges []edge) {
	q := make([]sim.Rat, len(actors)) // zero = unassigned
	done := make([]bool, len(edges))  // each edge propagates or checks once
	// Adjacency in edge order keeps the propagation deterministic.
	adj := make([][]int, len(actors))
	for i, e := range edges {
		adj[e.prod] = append(adj[e.prod], i)
		adj[e.cons] = append(adj[e.cons], i)
	}
	for start := range actors {
		if !q[start].IsZero() || len(adj[start]) == 0 {
			continue
		}
		q[start] = one
		queue := []int{start}
		for len(queue) > 0 {
			a := queue[0]
			queue = queue[1:]
			for _, ei := range adj[a] {
				if done[ei] {
					continue
				}
				e := edges[ei]
				// At least one end is assigned (actor a came off the
				// queue). A tree edge forces the other end's ratio; an
				// edge whose ends are both assigned closes a cycle and
				// must satisfy q[prod]*p == q[cons]*c.
				switch {
				case q[e.cons].IsZero():
					q[e.cons] = ratDiv(ratMul(q[e.prod], e.p), e.c)
					queue = append(queue, e.cons)
				case q[e.prod].IsZero():
					q[e.prod] = ratDiv(ratMul(q[e.cons], e.c), e.p)
					queue = append(queue, e.prod)
				case ratCmp(ratMul(q[e.prod], e.p), ratMul(q[e.cons], e.c)) != 0:
					r.add(lint.Diag{
						Rule: "RATE-1", Severity: lint.SevError, Path: e.ch.Name,
						Message: fmt.Sprintf(
							"balance equations are inconsistent: %s fires %s times per iteration pushing %s tokens, but %s fires %s times popping %s — the cycle cannot reach a steady state",
							actors[e.prod].Path, q[e.prod], e.p,
							actors[e.cons].Path, q[e.cons], e.c),
						Hint: "fix the declared rates so production equals consumption around the cycle, or reclassify a data-dependent component as ActorSwitch",
					})
				}
				done[ei] = true
			}
		}
	}
}

// checkSupplyDemand adds RATE-2 warnings on edges whose declared
// services make the steady-state supply and demand unequal. Imbalance on
// a latency-insensitive channel never loses data — backpressure
// throttles the faster side — but it wastes the faster component and
// tells the designer where the pipeline will saturate.
func checkSupplyDemand(r *Result, actors []*sim.ActorDecl, edges []edge) {
	for _, e := range edges {
		sp, sc := actors[e.prod].Service, actors[e.cons].Service
		if sp.IsZero() || sc.IsZero() {
			continue
		}
		supply := ratMul(sp, e.p) // tokens per cycle offered
		demand := ratMul(sc, e.c) // tokens per cycle drained
		switch ratCmp(supply, demand) {
		case 1:
			r.add(lint.Diag{
				Rule: "RATE-2", Severity: lint.SevWarning, Path: e.ch.Name,
				Message: fmt.Sprintf("flooded: %s supplies %s tokens/cycle but %s drains only %s — the channel runs full and backpressure throttles the producer",
					actors[e.prod].Path, supply, actors[e.cons].Path, demand),
				Hint: "speed up the consumer, slow the producer, or accept the producer stall and document it",
			})
		case -1:
			r.add(lint.Diag{
				Rule: "RATE-2", Severity: lint.SevWarning, Path: e.ch.Name,
				Message: fmt.Sprintf("starved: %s demands %s tokens/cycle but %s supplies only %s — the channel runs empty and the consumer idles",
					actors[e.cons].Path, demand, actors[e.prod].Path, supply),
				Hint: "speed up the producer or lower the consumer's service rate",
			})
		}
	}
}
