package lint_test

// Shipped-design cleanliness: every design the repo ships — the SoC
// workloads under both clocking styles, the NoC mesh builder the
// examples instantiate, and the deliberately broken fixtures' clean
// siblings — must elaborate and lint with zero diagnostics. The broken
// fixtures themselves are pinned to their exact expected findings.

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/soc"
)

func TestShippedSoCDesignsLintClean(t *testing.T) {
	for _, galsOn := range []bool{false, true} {
		for _, tc := range append(soc.Tests(), soc.ExtraTests()...) {
			cfg := soc.DefaultConfig()
			cfg.GALS = galsOn
			s, _ := tc.Build(cfg)
			r := lint.Check(s.Sim)
			if r.Errors() != 0 || r.Warnings() != 0 {
				var b strings.Builder
				r.WriteTree(&b)
				t.Errorf("%s (gals=%v):\n%s", tc.Name, galsOn, b.String())
			}
			if galsOn && r.Syncs == 0 {
				t.Errorf("%s: GALS build registered no synchronizers", tc.Name)
			}
		}
	}
}

func TestNocTopologiesLintClean(t *testing.T) {
	// The mesh builder behind examples/nocdemo and the NoC experiments.
	t.Run("mesh", func(t *testing.T) {
		s := sim.New()
		clk := s.AddClock("clk", 1000, 0)
		noc.BuildMesh(clk, "m", 3, 3, 2, 4)
		if r := lint.Check(s); len(r.Diags) != 0 {
			var b strings.Builder
			r.WriteTree(&b)
			t.Fatalf("mesh:\n%s", b.String())
		}
	})
}

func TestLintFixtures(t *testing.T) {
	cfg := soc.DefaultConfig()
	byName := map[string]soc.Fixture{}
	for _, tc := range soc.Fixtures() {
		if tc.Pass == "lint" {
			byName[tc.Name] = tc
		}
	}

	t.Run("badcdc", func(t *testing.T) {
		s, _ := byName["badcdc"].Build(cfg)
		r := lint.Check(s.Sim)
		if r.Errors() != 1 || r.Warnings() != 0 {
			t.Fatalf("badcdc: %d errors, %d warnings", r.Errors(), r.Warnings())
		}
		d := r.Diags[0]
		if d.Rule != "CDC-1" || d.Path != "fixture/xclk" {
			t.Fatalf("badcdc diag = %+v", d)
		}
		// Both endpoint paths must be named.
		for _, want := range []string{"fixture/prod.out", "fixture/cons.in"} {
			if !strings.Contains(d.Message, want) {
				t.Errorf("badcdc message %q missing %q", d.Message, want)
			}
		}
	})
	t.Run("badloop", func(t *testing.T) {
		s, _ := byName["badloop"].Build(cfg)
		r := lint.Check(s.Sim)
		if r.Errors() != 1 || r.Warnings() != 0 {
			t.Fatalf("badloop: %d errors, %d warnings", r.Errors(), r.Warnings())
		}
		d := r.Diags[0]
		if d.Rule != "DLK-1" || len(d.Channels) != 2 {
			t.Fatalf("badloop diag = %+v", d)
		}
	})
	t.Run("badport", func(t *testing.T) {
		s, _ := byName["badport"].Build(cfg)
		r := lint.Check(s.Sim)
		if r.Errors() != 1 || r.Warnings() != 1 {
			t.Fatalf("badport: %d errors, %d warnings", r.Errors(), r.Warnings())
		}
		if r.Diags[0].Rule != "CON-1" || r.Diags[1].Rule != "CON-2" {
			t.Fatalf("badport diags = %+v", r.Diags)
		}
	})
}

// TestLintAddsNothingWhenUnused pins the zero-overhead contract: a
// build that never lints allocates the design side table (cheap,
// constructor-time appends) but Check itself is the only reader — the
// design graph records exactly what was built regardless.
func TestDesignGraphCounts(t *testing.T) {
	cfg := soc.DefaultConfig()
	s, _ := soc.Tests()[0].Build(cfg)
	d := s.Sim.Design()
	if len(d.Channels()) == 0 || len(d.Ports()) == 0 || len(d.Partitions()) != soc.NumNodes {
		t.Fatalf("design graph: %d channels, %d ports, %d partitions",
			len(d.Channels()), len(d.Ports()), len(d.Partitions()))
	}
	cfg.GALS = true
	s2, _ := soc.Tests()[0].Build(cfg)
	if len(s2.Sim.Design().Syncs()) == 0 {
		t.Fatal("GALS design graph has no synchronizer edges")
	}
}
