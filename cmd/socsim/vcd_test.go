package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/soc"
)

// TestVCDPinned pins the exact bytes of the waveforms socsim -vcd
// writes, by their FNV-64a hash: two armed simulations and the replays
// of two model-checking counterexamples. The simulated dumps equal
// `socsim -test memcpy -vcd f` and `socsim -test conv1d -gals -stall 0.1
// -vcd f`; the replays equal `socsim -test <design> -check verify -vcd f`.
func TestVCDPinned(t *testing.T) {
	sims := []struct {
		test  string
		gals  bool
		stall float64
		want  string
	}{
		{"memcpy", false, 0, "c3ac95e911c4a3cb"},
		{"conv1d", true, 0.1, "fd5ff0e4a1a4aa5f"},
	}
	for _, tc := range sims {
		f, ok := soc.Lookup(tc.test)
		if !ok {
			t.Fatalf("unknown test %s", tc.test)
		}
		cfg := soc.DefaultConfig()
		cfg.GALS, cfg.StallP, cfg.StallSeed, cfg.Trace = tc.gals, tc.stall, 1, true
		s, _ := f.Build(cfg)
		if _, err := s.Run(10_000_000); err != nil {
			t.Fatalf("%s: %v", tc.test, err)
		}
		path := filepath.Join(t.TempDir(), tc.test+".vcd")
		if _, err := writeVCD(path, s.Tracer()); err != nil {
			t.Fatal(err)
		}
		checkVCDHash(t, path, tc.want)
	}
	replays := []struct{ test, want string }{
		{"mcdeadlock", "e41b37a0327f0f83"},
		{"mcbufeqv", "7a8da7f7642aa73c"},
	}
	for _, tc := range replays {
		path := filepath.Join(t.TempDir(), tc.test+".vcd")
		if code := runChecks(soc.DefaultConfig(), "tlm", tc.test, "verify", "", path); code != 1 {
			t.Fatalf("runChecks(%s, verify) = %d, want 1", tc.test, code)
		}
		checkVCDHash(t, path, tc.want)
	}
}

func checkVCDHash(t *testing.T, path, want string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("%s hash = %s, want %s", filepath.Base(path), got, want)
	}
}
