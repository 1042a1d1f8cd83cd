package mc

import (
	"strings"
	"testing"
)

// handEdge declares one edge of a hand-built model; node names starting
// with "env:" are environment actors.
type handEdge struct {
	name, prod, cons        string
	cap, prodRate, consRate int
}

// handModel wires a model in the given edge order, numbering nodes in
// order of first mention.
func handModel(edges ...handEdge) *Model {
	m := &Model{}
	idx := map[string]int{}
	node := func(name string) int {
		if i, ok := idx[name]; ok {
			return i
		}
		idx[name] = len(m.Nodes)
		m.Nodes = append(m.Nodes, Node{Name: name, Env: strings.HasPrefix(name, "env:")})
		return len(m.Nodes) - 1
	}
	for _, he := range edges {
		e := Edge{Name: he.name, Kind: "Buffer", Cap: he.cap, ProdRate: he.prodRate, ConsRate: he.consRate,
			Prod: node(he.prod), Cons: node(he.cons)}
		ei := len(m.Edges)
		m.Edges = append(m.Edges, e)
		m.Nodes[e.Prod].Out = append(m.Nodes[e.Prod].Out, ei)
		m.Nodes[e.Cons].In = append(m.Nodes[e.Cons].In, ei)
	}
	m.finish()
	return m
}

// pipe is a clean component: one channel between two free-running
// environment actors.
func pipe(p string) []handEdge {
	return []handEdge{{p + "/q", "env:" + p + ".tx", "env:" + p + ".rx", 1, 1, 1}}
}

// ring is a token ring with no initial token: deadlocked at depth 0.
func ring(p string) []handEdge {
	return []handEdge{
		{p + "/ab", p + "/a", p + "/b", 1, 1, 1},
		{p + "/ba", p + "/b", p + "/a", 1, 1, 1},
	}
}

// fill's packer needs k tokens before it would fire, then can never
// push its 2-token burst into a 1-slot channel: an equivalence
// violation first reachable at depth k (and a deadlock at depth 0).
func fill(p string, k int) []handEdge {
	return []handEdge{
		{p + "/acc", "env:" + p + ".src", p + "/pack", k, 1, k},
		{p + "/burst", p + "/pack", "env:" + p + ".sink", 1, 2, 1},
	}
}

func cat(parts ...[]handEdge) []handEdge {
	var all []handEdge
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

func find(t *testing.T, r *Result, property string) *Counterexample {
	t.Helper()
	for _, cx := range r.Counterexamples {
		if cx.Property == property {
			return cx
		}
	}
	t.Fatalf("no %s counterexample", property)
	return nil
}

// One violating component makes the whole model violated, with that
// component's counterexample and every other edge empty throughout.
func TestMergeOneViolatingComponent(t *testing.T) {
	m := handModel(cat(pipe("p0"), ring("r"), pipe("p1"))...)
	if n := len(m.components()); n != 3 {
		t.Fatalf("%d components, want 3", n)
	}
	r := check(m, Options{}.withDefaults())
	if r.Deadlock.Verdict != VerdictViolated || r.Deadlock.Depth != 0 {
		t.Fatalf("deadlock = %+v, want violated at depth 0", r.Deadlock)
	}
	if r.Equivalence.Verdict != VerdictProved {
		t.Fatalf("equivalence = %+v, want proved", r.Equivalence)
	}
	cx := find(t, r, "deadlock")
	if got := strings.Join(cx.Cycle, " -> "); got != "r/a -> r/b" {
		t.Fatalf("cycle %s, want r/a -> r/b", got)
	}
	for i, st := range cx.Steps {
		if len(st.Occ) != len(m.Edges) {
			t.Fatalf("step %d has %d occupancies, want %d", i, len(st.Occ), len(m.Edges))
		}
		if st.Occ[0] != 0 || st.Occ[3] != 0 {
			t.Fatalf("step %d: idle pipes hold tokens: %v", i, st.Occ)
		}
	}
}

// A shallower violation in a later component wins, and its occupancies
// land on the whole model's edge indices even when the components'
// edges interleave.
func TestMergeShallowestViolationWins(t *testing.T) {
	x, y := fill("x", 3), fill("y", 1)
	m := handModel(x[0], y[0], x[1], y[1])
	r := check(m, Options{}.withDefaults())
	if r.Equivalence.Verdict != VerdictViolated || r.Equivalence.Depth != 1 {
		t.Fatalf("equivalence = %+v, want violated at depth 1", r.Equivalence)
	}
	cx := find(t, r, "equivalence")
	if cx.Node != "y/pack" || cx.Channel != "y/burst" {
		t.Fatalf("witness %s starving %s, want y/pack starving y/burst", cx.Node, cx.Channel)
	}
	if got := cx.Steps[1].Occ; got[0] != 0 || got[1] != 1 || got[2] != 0 || got[3] != 0 {
		t.Fatalf("step 1 occupancies %v, want [0 1 0 0]", got)
	}
	if got := strings.Join(cx.Steps[1].Fired, ","); got != "env:y.src" {
		t.Fatalf("step 1 fired %s, want env:y.src alone", got)
	}
	// Both components deadlock at depth 0: the earlier one reports.
	if dl := find(t, r, "deadlock"); dl.Cycle[0] != "x/pack" {
		t.Fatalf("deadlock cycle %v, want component x's", dl.Cycle)
	}
}

// Equally deep violations go to the earlier component.
func TestMergeTieGoesToEarlierComponent(t *testing.T) {
	m := handModel(cat(fill("x", 2), fill("y", 2))...)
	r := check(m, Options{}.withDefaults())
	if cx := find(t, r, "equivalence"); cx.Node != "x/pack" || cx.Depth != 2 {
		t.Fatalf("witness %s at depth %d, want x/pack at depth 2", cx.Node, cx.Depth)
	}
}

// A component left without budget makes the merged verdicts
// inconclusive, even when every component searched was proved; a
// remaining budget of zero means exhausted, not the default.
func TestMergeStarvedComponentIsInconclusive(t *testing.T) {
	one := check(handModel(pipe("p0")...), Options{}.withDefaults())
	if !one.Proved() {
		t.Fatalf("single pipe not proved: %s", one.Summary())
	}
	r := check(handModel(cat(pipe("p0"), pipe("p1"))...), Options{MaxStates: one.States}.withDefaults())
	if r.Deadlock.Verdict != VerdictInconclusive || r.Equivalence.Verdict != VerdictInconclusive {
		t.Fatalf("starved merge = %s, want inconclusive for both", r.Summary())
	}
	if r.States != one.States {
		t.Fatalf("starved search visited %d state(s), budget %d", r.States, one.States)
	}
}

// The breadth-first search stops at its fixpoint, not at the depth
// bound: a free-running pair on a 1-slot channel reaches only a few
// states, so a bound of 100000 still proves it in at most four.
func TestSearchReachesFixpointOnPipe(t *testing.T) {
	r := check(handModel(pipe("p")...), Options{Depth: 100000}.withDefaults())
	if !r.Proved() || r.States > 4 {
		t.Fatalf("pipe at depth 100000: %s", r.Summary())
	}
}
