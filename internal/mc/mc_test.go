package mc_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/mc"
	"repro/internal/soc"
	"repro/internal/trace"
)

func buildNamed(t *testing.T, name string) *soc.SoC {
	t.Helper()
	f, ok := soc.Lookup(name)
	if !ok {
		t.Fatalf("no design named %q", name)
	}
	s, _ := f.Build(soc.DefaultConfig())
	return s
}

// The serializer chain example must be proved outright: every endpoint
// is declared, so the reachable state space is closed and small.
func TestProvesSerdes(t *testing.T) {
	s := buildNamed(t, "mcserdes")
	r := mc.Check(s.Sim, mc.Options{})
	if !r.Proved() {
		t.Fatalf("serdes not proved: deadlock=%s equivalence=%s notes=%v",
			r.Deadlock.Verdict, r.Equivalence.Verdict, r.Notes)
	}
	if len(r.Diags) != 0 {
		t.Fatalf("unexpected diagnostics: %+v", r.Diags)
	}
	if r.EnvEndpoints != 0 {
		t.Fatalf("serdes model should be closed, got %d env endpoints", r.EnvEndpoints)
	}
}

// The GALS crossing example: one pausible bisync FIFO between drifting
// clocks, proved deadlock-free and equivalent within the bound.
func TestProvesGals(t *testing.T) {
	s := buildNamed(t, "mcgals")
	r := mc.Check(s.Sim, mc.Options{})
	if !r.Proved() {
		t.Fatalf("gals crossing not proved: deadlock=%s equivalence=%s notes=%v",
			r.Deadlock.Verdict, r.Equivalence.Verdict, r.Notes)
	}
	if len(r.Diags) != 0 {
		t.Fatalf("unexpected diagnostics: %+v", r.Diags)
	}
}

// The seeded token ring must be caught as a reachable deadlock (MC-1),
// cross-referenced against lint's static DLK SCC.
func TestFindsSeededDeadlock(t *testing.T) {
	s := buildNamed(t, "mcdeadlock")
	r := mc.Check(s.Sim, mc.Options{})
	if r.Deadlock.Verdict != mc.VerdictViolated {
		t.Fatalf("deadlock verdict = %s, want violated", r.Deadlock.Verdict)
	}
	var d string
	for _, diag := range r.Diags {
		if diag.Rule == "MC-1" {
			d = diag.Message
		}
	}
	if d == "" {
		t.Fatalf("no MC-1 diagnostic: %+v", r.Diags)
	}
	if !strings.Contains(d, "fixture/a") || !strings.Contains(d, "fixture/b") {
		t.Fatalf("MC-1 message does not name the ring actors: %s", d)
	}
	if !strings.Contains(d, "DLK-2") {
		t.Fatalf("MC-1 message does not cross-reference lint's static SCC: %s", d)
	}
	if r.Err() == nil {
		t.Fatal("violated result must carry an error")
	}
}

// The undersized-buffer fixture must be caught as an equivalence
// violation (MC-2) with a witness at the accumulator-fill depth, and
// the hint must cite ratecheck's RATE-3 minimum as the repair.
func TestFindsBufferEquivalenceViolation(t *testing.T) {
	s := buildNamed(t, "mcbufeqv")
	r := mc.Check(s.Sim, mc.Options{})
	if r.Equivalence.Verdict != mc.VerdictViolated {
		t.Fatalf("equivalence verdict = %s, want violated", r.Equivalence.Verdict)
	}
	var hint, msg string
	for _, diag := range r.Diags {
		if diag.Rule == "MC-2" {
			hint, msg = diag.Hint, diag.Message
		}
	}
	if msg == "" {
		t.Fatalf("no MC-2 diagnostic: %+v", r.Diags)
	}
	if !strings.Contains(msg, "fixture/qburst") {
		t.Fatalf("MC-2 message does not name the undersized channel: %s", msg)
	}
	if !strings.Contains(hint, "RATE-3") {
		t.Fatalf("MC-2 hint does not cite the ratecheck minimum: %s", hint)
	}
	var eq *mc.Counterexample
	for _, cx := range r.Counterexamples {
		if cx.Property == "equivalence" {
			eq = cx
		}
	}
	if eq == nil {
		t.Fatal("no equivalence counterexample")
	}
	if eq.Depth < 4 {
		t.Fatalf("equivalence witness at depth %d, want >= 4 (the accumulator must fill first)", eq.Depth)
	}
	if len(eq.Steps) != eq.Depth+1 {
		t.Fatalf("counterexample has %d steps for depth %d", len(eq.Steps), eq.Depth)
	}
}

// A counterexample must replay through the trace recorder and render as
// a VCD via the existing tooling.
func TestCounterexampleReplaysAsVCD(t *testing.T) {
	s := buildNamed(t, "mcdeadlock")
	r := mc.Check(s.Sim, mc.Options{})
	if len(r.Counterexamples) == 0 {
		t.Fatal("no counterexample to replay")
	}
	rec := trace.NewRecorder()
	r.Replay(rec, r.Counterexamples[0])
	var vcd bytes.Buffer
	if _, _, err := rec.WriteVCD(&vcd); err != nil {
		t.Fatalf("WriteVCD: %v", err)
	}
	out := vcd.String()
	for _, want := range []string{"$var", "ab", "ba", "valid", "ready", "occ"} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD missing %q:\n%s", want, out)
		}
	}
}

// Tree and JSON renderings must be byte-identical across runs: the
// search, the diagnostics, and the renderers are all deterministic.
func TestByteStableOutput(t *testing.T) {
	for _, name := range []string{"mcserdes", "mcdeadlock", "mcbufeqv"} {
		render := func() (string, string) {
			s := buildNamed(t, name)
			r := mc.Check(s.Sim, mc.Options{})
			var tree, js bytes.Buffer
			r.WriteTree(&tree)
			if err := r.WriteJSON(&js); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			return tree.String(), js.String()
		}
		t1, j1 := render()
		t2, j2 := render()
		if t1 != t2 {
			t.Fatalf("%s: tree output not byte-stable", name)
		}
		if j1 != j2 {
			t.Fatalf("%s: JSON output not byte-stable", name)
		}
	}
}

// A budget-starved search must not claim a proof, whether the model is
// one component (mcserdes) or hundreds that share the budget (memcpy).
func TestOptionsBudgetDegradesVerdict(t *testing.T) {
	for _, name := range []string{"mcserdes", "memcpy"} {
		s := buildNamed(t, name)
		r := mc.Check(s.Sim, mc.Options{MaxStates: 4})
		if r.Deadlock.Verdict == mc.VerdictProved || r.Equivalence.Verdict == mc.VerdictProved {
			t.Fatalf("%s: budget-starved search must not claim a proof: deadlock=%s equivalence=%s",
				name, r.Deadlock.Verdict, r.Equivalence.Verdict)
		}
		if r.States > 4 {
			t.Fatalf("%s: %d state(s) visited on a budget of 4", name, r.States)
		}
	}
}

// A context that has already ended stops the search before any
// component is searched: both verdicts are inconclusive, with neither a
// proof nor a violation.
func TestContextEndsSearch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"memcpy", "mcdeadlock"} {
		s := buildNamed(t, name)
		r := mc.Check(s.Sim, mc.Options{Context: ctx})
		if r.Deadlock.Verdict != mc.VerdictInconclusive || r.Equivalence.Verdict != mc.VerdictInconclusive {
			t.Fatalf("%s: ended context gave deadlock=%s equivalence=%s, want inconclusive for both",
				name, r.Deadlock.Verdict, r.Equivalence.Verdict)
		}
		if len(r.Counterexamples) != 0 || r.States != 0 {
			t.Fatalf("%s: ended context still searched: %s", name, r.Summary())
		}
	}
}
