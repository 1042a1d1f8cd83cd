package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/mc"
	"repro/internal/soc"
)

// TestFixtures walks every shipped fixture under the pass it exercises:
// a must-fail fixture has to report an error, a clean one none. The
// walk checks the reports themselves, so a build failure cannot pass
// for a caught bug.
func TestFixtures(t *testing.T) {
	want := map[string]int{"lint": 3, "rateck": 2, "verify": 4}
	got := map[string]int{}
	for _, f := range soc.Fixtures() {
		p, ok := analysis.Lookup(f.Pass)
		if !ok {
			t.Errorf("%s exercises unregistered pass %q", f.Name, f.Pass)
			continue
		}
		got[f.Pass]++
		s, run := f.Build(soc.DefaultConfig())
		if err := run(s); err == nil {
			t.Errorf("%s claims to be runnable", f.Name)
		}
		r := p.Run(s.Sim, analysis.Options{})
		if f.Fails != (r.Errors() > 0) {
			var b strings.Builder
			r.WriteTree(&b)
			t.Errorf("%s under %s: %d errors, want fails=%v:\n%s", f.Name, f.Pass, r.Errors(), f.Fails, b.String())
		}
	}
	for pass, n := range want {
		if got[pass] != n {
			t.Errorf("%d %s fixtures, want %d", got[pass], pass, n)
		}
	}
}

// TestPassTable: every pass is found by its name, and its default
// design is one every surface accepts.
func TestPassTable(t *testing.T) {
	for _, p := range analysis.Passes {
		if q, ok := analysis.Lookup(p.Name); !ok || q.Name != p.Name {
			t.Errorf("Lookup(%q) = %q, %v", p.Name, q.Name, ok)
		}
		if _, ok := soc.Lookup(p.Design); !ok {
			t.Errorf("%s default design %q is not registered", p.Name, p.Design)
		}
	}
	if _, ok := analysis.Lookup("sim"); ok {
		t.Error("sim is not an analysis pass")
	}
}

// TestVerifyDecidesEveryDesign: the breadth-first search alone decides
// both properties on every design soc.Lookup can name, on one clock and
// under GALS — each verdict is proved or violated at mc.DefaultDepth,
// never bounded or inconclusive, and no component runs out of budget or
// falls back to the partial stall adversary. A design that needs a
// cheaper search lane fails here first.
func TestVerifyDecidesEveryDesign(t *testing.T) {
	p, _ := analysis.Lookup("verify")
	designs := append(soc.Tests(), soc.ExtraTests()...)
	for _, f := range soc.Fixtures() {
		designs = append(designs, f.TestCase)
	}
	for _, gals := range []bool{false, true} {
		for _, tc := range designs {
			cfg := soc.DefaultConfig()
			cfg.GALS = gals
			s, _ := tc.Build(cfg)
			r := p.Run(s.Sim, analysis.Options{Depth: mc.DefaultDepth}).(*mc.Result)
			for _, v := range []string{r.Deadlock.Verdict, r.Equivalence.Verdict} {
				if v != mc.VerdictProved && v != mc.VerdictViolated {
					t.Errorf("%s (gals=%v): %s", tc.Name, gals, r.Summary())
					break
				}
			}
			for _, n := range r.Notes {
				if strings.Contains(n, "search budget exhausted") || strings.Contains(n, "MaxChoice") {
					t.Errorf("%s (gals=%v): note %q", tc.Name, gals, n)
				}
			}
		}
	}
}
