package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// The deadlock passes view the design as a component graph: one node per
// owning component path, one directed edge per channel whose endpoints
// both declared ownership (anonymous endpoints give the checker no
// connectivity to reason about). An edge's slack is the number of
// in-flight tokens the channel can absorb before the producer blocks on
// the consumer:
//
//	slack = (capacity − 1) + retiming latency
//
// A cycle whose total slack is zero can wedge with every component
// waiting on its downstream neighbour. Since per-edge slack is never
// negative (capacity is clamped to ≥ 1), a zero-slack cycle is exactly a
// cycle of zero-slack edges — so one strongly-connected-components pass
// over the slack-0 subgraph finds every such cycle, and an SCC made
// entirely of combinational/bypass edges is the stronger hazard: a
// zero-latency loop where each endpoint's handshake depends
// combinationally on the other's (DLK-1). Anything else cyclic in the
// subgraph is a buffered zero-slack cycle (DLK-2), reported as a warning
// because component-granularity analysis cannot see VC/dateline
// structure that makes some such rings live.

type dlkEdge struct {
	from, to string
	ch       *sim.ChannelDecl
}

func combKind(kind string) bool { return kind == "Combinational" || kind == "Bypass" }

func edgeSlack(c *sim.ChannelDecl) int {
	cap := c.Capacity
	if cap < 1 {
		cap = 1
	}
	return cap - 1 + c.Latency
}

// checkDeadlock runs DLK-1 and DLK-2.
func checkDeadlock(d *sim.Design, r *Result) {
	var edges []dlkEdge
	for _, c := range d.Channels() {
		if c.Prod == nil || c.Cons == nil || c.Terminated {
			continue
		}
		if edgeSlack(c) > 0 {
			continue
		}
		edges = append(edges, dlkEdge{from: c.Prod.Path, to: c.Cons.Path, ch: c})
	}
	for _, scc := range cyclicSCCs(edges) {
		inSCC := make(map[string]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		var chans []string
		allComb := true
		for _, e := range edges {
			if inSCC[e.from] && inSCC[e.to] {
				chans = append(chans, e.ch.Name)
				if !combKind(e.ch.Kind) {
					allComb = false
				}
			}
		}
		sort.Slice(chans, func(i, j int) bool { return stats.PathLess(chans[i], chans[j]) })
		if allComb {
			r.add(Diag{
				Rule: "DLK-1", Severity: SevError, Path: scc[0],
				Message: fmt.Sprintf("zero-latency combinational loop through %s (channels %s)",
					strings.Join(scc, " -> "), strings.Join(chans, ", ")),
				Hint:     "break the loop with a Pipeline or Buffer channel",
				Channels: chans,
			})
		} else {
			r.add(Diag{
				Rule: "DLK-2", Severity: SevWarning, Path: scc[0],
				Message: fmt.Sprintf("zero-slack channel cycle through %s (channels %s): every buffer on the cycle is a single-entry FIFO, so the ring can wedge when full",
					strings.Join(scc, " -> "), strings.Join(chans, ", ")),
				Hint:     "deepen one buffer on the cycle, or confirm liveness with a traced run (trace.Analyze)",
				Channels: chans,
			})
		}
	}
}

// cyclicSCCs runs Tarjan's strongly-connected-components algorithm over
// the edge list and returns only the cyclic components — size ≥ 2, or a
// single node with a self-edge — each with its members in natural path
// order, and the components themselves ordered by their first member.
func cyclicSCCs(edges []dlkEdge) [][]string {
	adj := make(map[string][]string)
	selfLoop := make(map[string]bool)
	var nodes []string
	addNode := func(n string) {
		if _, ok := adj[n]; !ok {
			adj[n] = nil
			nodes = append(nodes, n)
		}
	}
	for _, e := range edges {
		addNode(e.from)
		addNode(e.to)
		adj[e.from] = append(adj[e.from], e.to)
		if e.from == e.to {
			selfLoop[e.from] = true
		}
	}
	// Deterministic traversal: nodes and adjacency in natural path order.
	sort.Slice(nodes, func(i, j int) bool { return stats.PathLess(nodes[i], nodes[j]) })
	for _, n := range nodes {
		next := adj[n]
		sort.Slice(next, func(i, j int) bool { return stats.PathLess(next[i], next[j]) })
	}

	index := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool, len(nodes))
	var stack []string
	var sccs [][]string
	next := 1

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 || selfLoop[scc[0]] {
				sort.Slice(scc, func(i, j int) bool { return stats.PathLess(scc[i], scc[j]) })
				sccs = append(sccs, scc)
			}
		}
	}
	for _, n := range nodes {
		if index[n] == 0 {
			strongconnect(n)
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return stats.PathLess(sccs[i][0], sccs[j][0]) })
	return sccs
}
