package soc

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/connections"
	"repro/internal/stats"
)

// TestSoCStatsPinned pins the whole metrics snapshot of two SoC tests —
// every channel's transfers, stall cycles and mean occupancy, every
// router's flit counts, every clock's cycles, the gate-level shadow's
// toggles and the published power estimate — by the FNV-64a hash of its
// canonical JSON. golden.json in the benchmark module holds only cycle,
// instret, edge and pause counts, so a kernel change that moved a
// channel counter without moving a cycle would otherwise pass unseen.
// The run ignores SOC_TRACE: arming is pure observation, and the pinned
// bytes are the disarmed snapshot. GALS is also pinned under stall
// injection and with signal-accurate channels, the two settings that
// change how its CDC relays block; one clock is also pinned under stall
// injection with signal-accurate and RTL-cosim channels, where the NIs'
// and the hart's port operations block mid-packet and mid-instruction.
func TestSoCStatsPinned(t *testing.T) {
	configs := []struct {
		name string
		edit func(*Config)
	}{
		{"tlm", func(*Config) {}},
		{"gals", func(c *Config) { c.GALS = true }},
		{"signal", func(c *Config) { c.Mode = connections.ModeSignalAccurate }},
		{"rtl", func(c *Config) { c.Mode = connections.ModeRTLCosim }},
		{"stall", func(c *Config) { c.StallP, c.StallSeed = 0.1, 1 }},
		{"gals-stall", func(c *Config) { c.GALS, c.StallP, c.StallSeed = true, 0.1, 1 }},
		{"gals-signal", func(c *Config) { c.GALS, c.Mode = true, connections.ModeSignalAccurate }},
		{"rtl-shadow", func(c *Config) { c.Mode, c.ShadowNetlists = connections.ModeRTLCosim, true }},
		{"power", func(*Config) {}},
		{"signal-stall", func(c *Config) { c.Mode, c.StallP, c.StallSeed = connections.ModeSignalAccurate, 0.1, 1 }},
		{"rtl-stall", func(c *Config) { c.Mode, c.StallP, c.StallSeed = connections.ModeRTLCosim, 0.1, 1 }},
	}
	want := map[string]string{
		"memcpy/tlm":           "088e76ec21f1f4ad",
		"memcpy/gals":          "ff4dd53af36ded59",
		"memcpy/signal":        "130d8a91180978d0",
		"memcpy/rtl":           "a98b12a1d3a83609",
		"memcpy/stall":         "8a5a62fe46928089",
		"memcpy/gals-stall":    "4fffe1a290ec7761",
		"memcpy/gals-signal":   "35906b2afebe8ab7",
		"memcpy/rtl-shadow":    "5b08db14b4b3e85d",
		"memcpy/power":         "9613ba81f0db0c77",
		"memcpy/signal-stall":  "6c795990f4926d18",
		"memcpy/rtl-stall":     "2d1c43ef12290320",
		"maxpool/tlm":          "3fcba288351a66cc",
		"maxpool/gals":         "7e5cdc5021e6c2ca",
		"maxpool/signal":       "8535a99faa363f8a",
		"maxpool/rtl":          "910b560fc031ea05",
		"maxpool/stall":        "20f6e50cc57d5c32",
		"maxpool/gals-stall":   "1be93504cf04b45c",
		"maxpool/gals-signal":  "7bd0df6fb71a6f76",
		"maxpool/rtl-shadow":   "8614beaed320a64a",
		"maxpool/power":        "84ceb1c87fb74ee8",
		"maxpool/signal-stall": "227f50c6b80308a4",
		"maxpool/rtl-stall":    "298fddb46c169fcb",
	}
	for _, tc := range Tests() {
		if tc.Name != "memcpy" && tc.Name != "maxpool" {
			continue
		}
		for _, c := range configs {
			key := tc.Name + "/" + c.name
			t.Run(key, func(t *testing.T) {
				cfg := DefaultConfig()
				c.edit(&cfg)
				s, verify := tc.Build(cfg)
				cycles, err := s.Run(maxCycles)
				if err != nil {
					t.Fatal(err)
				}
				if err := verify(s); err != nil {
					t.Fatal(err)
				}
				if c.name == "power" {
					s.PowerEstimate(cycles, 1100)
				}
				if got := metricsHash(t, s); got != want[key] {
					t.Errorf("%s metrics hash = %s, want %s", key, got, want[key])
				}
			})
		}
	}
}

// metricsHash returns the FNV-64a hash of the SoC's metrics snapshot in
// its canonical JSON form, as hex.
func metricsHash(t *testing.T, s *SoC) string {
	t.Helper()
	var buf bytes.Buffer
	if err := stats.WriteMetricsJSON(&buf, s.Sim.Metrics().Snapshot()); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return fmt.Sprintf("%016x", h.Sum64())
}
