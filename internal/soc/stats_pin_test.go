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

// TestColdSimStallPinned pins the configuration of the benchmark's cold
// sims (bench/service.go fullMix): every system test, the six of Tests
// and the two of ExtraTests, on one clock with sim-accurate channels and
// stall injection at 0.05, for stall seeds 1 and 2. Each row pins the
// elapsed cycles, the hart's retired instructions and the metrics hash,
// so a change to how stalled channels are scheduled that moved any
// channel's counters shows here, in the setting that spends most of a
// serve-mix session.
func TestColdSimStallPinned(t *testing.T) {
	type pin struct {
		cycles, instret uint64
		hash            string
	}
	want := map[string]pin{
		"memcpy/seed=1":  {1364, 1363, "977f15b03409bad6"},
		"memcpy/seed=2":  {1357, 1355, "1d8e221bd3b02e7f"},
		"vecadd/seed=1":  {2328, 2143, "60c4ff7042cd8613"},
		"vecadd/seed=2":  {2328, 2147, "42ff4363451cc069"},
		"dot/seed=1":     {1973, 1788, "645729629ba3d6ac"},
		"dot/seed=2":     {1987, 1806, "180c2803e3e537ad"},
		"conv1d/seed=1":  {2080, 2025, "3178537bc0e27201"},
		"conv1d/seed=2":  {2063, 2011, "04b8cf40fba6b305"},
		"kmeans/seed=1":  {2479, 2475, "1cc19bdeb59e8aea"},
		"kmeans/seed=2":  {2492, 2487, "d696022ffcae1ced"},
		"maxpool/seed=1": {3666, 3664, "2e62f4432abadf7d"},
		"maxpool/seed=2": {3697, 3696, "c087f55e721485f0"},
		"matvec/seed=1":  {4869, 3243, "889a50a81c3a3676"},
		"matvec/seed=2":  {4862, 3245, "287785c5d07336b9"},
		"f16dot/seed=1":  {1263, 1259, "c0edd367d4a5d837"},
		"f16dot/seed=2":  {1273, 1267, "b6bcbf8618fa37a0"},
	}
	for _, tc := range append(Tests(), ExtraTests()...) {
		for _, seed := range []int64{1, 2} {
			key := fmt.Sprintf("%s/seed=%d", tc.Name, seed)
			t.Run(key, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.StallP, cfg.StallSeed = 0.05, seed
				s, verify := tc.Build(cfg)
				cycles, err := s.Run(maxCycles)
				if err != nil {
					t.Fatal(err)
				}
				if err := verify(s); err != nil {
					t.Fatal(err)
				}
				got := pin{cycles, s.RV.CPU.Instret, metricsHash(t, s)}
				if got != want[key] {
					t.Errorf("%s = %+v, want %+v", key, got, want[key])
				}
			})
		}
	}
}

// TestFirmwareThatNeverExitsPinned pins GALS runs whose firmware never
// writes the exit register, so Run ends on its cycle bound. Each starts
// memcpy's first phase, sixteen DMA reads through the mesh. In "halts"
// the hart waits for the reads, then executes ECALL and parks for good,
// so every clock of the chip falls idle long before the bound; in
// "spins" it polls a done count that never arrives, so the controller's
// clock stays busy while the other nineteen fall idle. In the "cut"
// rows the hart halts right after issuing the reads and the bound falls
// while they are still in flight, where the controller's clock sleeps
// between done messages. Each row pins the elapsed cycles, the error,
// the kernel's final instant and total edges, and the metrics hash: a
// scheduler that let an idle clock's edges drift, or ended the run on
// another edge, shows here.
func TestFirmwareThatNeverExitsPinned(t *testing.T) {
	type pin struct {
		cycles, edges, now uint64
		err, hash          string
	}
	rows := []struct {
		name  string
		bound uint64
		want  pin
	}{
		{"halts", 20000, pin{20000, 400506, 18259655, "soc: firmware did not exit within 20000 cycles", "825a905bae7d38fb"}},
		{"spins", 20000, pin{20000, 400506, 18259655, "soc: firmware did not exit within 20000 cycles", "daf4216fc85adc8c"}},
		{"cut", 300, pin{300, 6001, 273555, "soc: firmware did not exit within 300 cycles", "1761b44b1201866b"}},
		{"cut", 400, pin{400, 8005, 364855, "soc: firmware did not exit within 400 cycles", "dfcad4e6f722e542"}},
		{"cut", 500, pin{500, 10007, 456155, "soc: firmware did not exit within 500 cycles", "9554711771611000"}},
		{"cut", 600, pin{600, 12011, 547455, "soc: firmware did not exit within 600 cycles", "0a26a333c1152dd1"}},
		{"cut", 700, pin{700, 14011, 638755, "soc: firmware did not exit within 700 cycles", "b8567743c2b418bd"}},
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("%s/%d", r.name, r.bound), func(t *testing.T) {
			fw := NewFirmware()
			for i := 0; i < NumPEs; i++ {
				fw.Send(NodeGML, ReadMsg(i*peTile, peTile, i, 0, NodeRV))
			}
			switch r.name {
			case "halts":
				fw.WaitDone(NumPEs)
				fw.P.ECALL()
			case "spins":
				fw.WaitDone(NumPEs + 1)
			case "cut":
				fw.P.ECALL()
			}
			cfg := DefaultConfig()
			cfg.GALS = true
			s := New(cfg, fw.Assemble())
			cycles, err := s.Run(r.bound)
			if err == nil {
				t.Fatal("a firmware that never exits ran without an error")
			}
			if halted := s.RV.CPU.Halted; halted != (r.name != "spins") {
				t.Fatalf("hart halted = %v", halted)
			}
			got := pin{cycles, s.Sim.TotalEdges(), uint64(s.Sim.Now()), err.Error(), metricsHash(t, s)}
			if got != r.want {
				t.Errorf("got %+v, want %+v", got, r.want)
			}
		})
	}
}
