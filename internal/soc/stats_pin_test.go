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
// router's flit counts, every clock's cycles — by the FNV-64a hash of its
// canonical JSON. golden.json in the benchmark module holds only cycle,
// instret, edge and pause counts, so a kernel change that moved a
// channel counter without moving a cycle would otherwise pass unseen.
// The run ignores SOC_TRACE: arming is pure observation, and the pinned
// bytes are the disarmed snapshot.
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
	}
	want := map[string]string{
		"memcpy/tlm":     "088e76ec21f1f4ad",
		"memcpy/gals":    "ff4dd53af36ded59",
		"memcpy/signal":  "130d8a91180978d0",
		"memcpy/rtl":     "a98b12a1d3a83609",
		"memcpy/stall":   "8a5a62fe46928089",
		"maxpool/tlm":    "3fcba288351a66cc",
		"maxpool/gals":   "7e5cdc5021e6c2ca",
		"maxpool/signal": "8535a99faa363f8a",
		"maxpool/rtl":    "910b560fc031ea05",
		"maxpool/stall":  "20f6e50cc57d5c32",
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
				if _, err := s.Run(maxCycles); err != nil {
					t.Fatal(err)
				}
				if err := verify(s); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := stats.WriteMetricsJSON(&buf, s.Sim.Metrics().Snapshot()); err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				h.Write(buf.Bytes())
				if got := fmt.Sprintf("%016x", h.Sum64()); got != want[key] {
					t.Errorf("%s metrics hash = %s, want %s", key, got, want[key])
				}
			})
		}
	}
}
