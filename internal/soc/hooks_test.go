package soc

import (
	"strings"
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

// TestCDCRelaysAreMethods checks the process kind of every CDC relay
// under GALS: a method in the sim-accurate and RTL-cosim models, a
// thread in the signal-accurate one, where each port operation charges a
// Wait. The relays are 248 of the chip's 341 thread and method slots;
// with the routers, the NIs and the hart also methods, the chip runs 32
// coroutine threads in sim-accurate mode.
func TestCDCRelaysAreMethods(t *testing.T) {
	modes := []struct {
		name  string
		mode  connections.Mode
		phase string
	}{
		{"tlm", connections.ModeSimAccurate, "method"},
		{"rtl", connections.ModeRTLCosim, "method"},
		{"signal", connections.ModeSignalAccurate, "thread"},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.GALS, cfg.Mode = true, m.mode
			s, _ := Tests()[0].Build(cfg)
			defer s.Sim.Close()
			relays, slots, threads := 0, 0, 0
			for _, p := range s.Sim.Processes() {
				switch p.Phase {
				case "thread":
					slots++
					threads++
				case "method":
					slots++
				}
				if !strings.HasPrefix(p.Name, "soc/noc/lnk[") || !(strings.HasSuffix(p.Name, "/tx") || strings.HasSuffix(p.Name, "/rx")) {
					continue
				}
				relays++
				if p.Phase != m.phase {
					t.Errorf("relay %s on clock %s runs as a %s, want a %s", p.Name, p.Clock, p.Phase, m.phase)
				}
			}
			if relays != 248 || slots != 341 {
				t.Errorf("%d CDC relays in %d slots, want 248 in 341", relays, slots)
			}
			if m.mode == connections.ModeSimAccurate && threads != 32 {
				t.Errorf("%d threads, want 32", threads)
			}
		})
	}
}

// TestNIsAndHartAreMethods checks the process kind of the processes that
// run on most edges of one clock — every NI's inject and eject loop and
// the RISC-V hart: a method in the sim-accurate and RTL-cosim models, a
// thread in the signal-accurate one.
func TestNIsAndHartAreMethods(t *testing.T) {
	modes := []struct {
		name  string
		mode  connections.Mode
		phase string
	}{
		{"tlm", connections.ModeSimAccurate, "method"},
		{"rtl", connections.ModeRTLCosim, "method"},
		{"signal", connections.ModeSignalAccurate, "thread"},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = m.mode
			s, _ := Tests()[0].Build(cfg)
			defer s.Sim.Close()
			n := 0
			for _, p := range s.Sim.Processes() {
				ni := strings.HasPrefix(p.Name, "soc/noc/ni[") && (strings.HasSuffix(p.Name, ".inject") || strings.HasSuffix(p.Name, ".eject"))
				if !ni && p.Name != "soc/rv/hart" {
					continue
				}
				n++
				if p.Phase != m.phase {
					t.Errorf("%s runs as a %s, want a %s", p.Name, p.Phase, m.phase)
				}
			}
			if n != 2*NumNodes+1 {
				t.Errorf("found %d NI loops and harts, want %d", n, 2*NumNodes+1)
			}
		})
	}
}
