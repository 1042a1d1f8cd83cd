package soc

import (
	"testing"

	"repro/internal/connections"
)

// TestProcessesNamedAndUnique builds every SoC test in every mode and
// checks that each registered thread and hook has a non-empty name and
// that no two share a clock, a phase and a name, so a per-hook profile
// can attribute time to each one.
func TestProcessesNamedAndUnique(t *testing.T) {
	modes := []struct {
		name string
		edit func(*Config)
	}{
		{"tlm", func(*Config) {}},
		{"gals", func(c *Config) { c.GALS = true }},
		{"signal", func(c *Config) { c.Mode = connections.ModeSignalAccurate }},
		{"rtl", func(c *Config) { c.Mode, c.ShadowNetlists = connections.ModeRTLCosim, true }},
		{"stall", func(c *Config) { c.StallP, c.StallSeed = 0.1, 1 }},
		{"trace", func(c *Config) { c.Trace = true }},
	}
	for _, tc := range Tests() {
		for _, m := range modes {
			t.Run(tc.Name+"/"+m.name, func(t *testing.T) {
				cfg := DefaultConfig()
				m.edit(&cfg)
				s, _ := tc.Build(cfg)
				defer s.Sim.Close()
				ps := s.Sim.Processes()
				if len(ps) == 0 {
					t.Fatal("no processes")
				}
				type key struct{ clock, phase, name string }
				seen := make(map[key]bool, len(ps))
				for _, p := range ps {
					if p.Name == "" {
						t.Errorf("unnamed %s process on clock %q", p.Phase, p.Clock)
					}
					k := key{p.Clock, p.Phase, p.Name}
					if seen[k] {
						t.Errorf("duplicate %s process %q on clock %q", p.Phase, p.Name, p.Clock)
					}
					seen[k] = true
				}
			})
		}
	}
}
