package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/connections"
	"repro/internal/soc"
)

// Counts are the simulated quantities of one SoC test run. They depend
// only on the design and its configuration, never on the host, so every
// run must reproduce them exactly.
type Counts struct {
	Cycles  uint64 `json:"cycles"`
	Instret uint64 `json:"instret"`
	Edges   uint64 `json:"edges"`
	Pauses  uint64 `json:"pauses"`
}

// Golden maps a chip variant ("sync", "gals", "rtl") and a test name to
// the test's counts.
type Golden map[string]map[string]Counts

//go:embed testdata/golden.json
var goldenJSON []byte

// golden is the checked-in determinism reference. Regenerate it with
// `go test . -run Golden -update` in this directory.
var golden = mustGolden(goldenJSON)

func mustGolden(data []byte) Golden {
	var g Golden
	if err := json.Unmarshal(data, &g); err != nil {
		panic(fmt.Sprintf("bench: testdata/golden.json: %v", err))
	}
	return g
}

// variants are the chip configurations the soc workloads build.
var variants = []string{"sync", "gals", "rtl"}

// variantConfig returns the SoC configuration of a variant.
func variantConfig(variant string) soc.Config {
	cfg := soc.DefaultConfig()
	switch variant {
	case "gals":
		cfg.GALS = true
	case "rtl":
		cfg.Mode = connections.ModeRTLCosim
		cfg.ShadowNetlists = true
	}
	return cfg
}

// maxCycles bounds every SoC run; the longest test needs ~3.4k cycles.
const maxCycles = 5_000_000

// countsOf reads the golden-checked quantities of a finished run.
func countsOf(s *soc.SoC, cycles uint64) Counts {
	c := Counts{Cycles: cycles, Instret: s.RV.CPU.Instret, Edges: s.Sim.TotalEdges()}
	if s.Cfg.GALS {
		c.Pauses = s.Pauses()
	}
	return c
}

// checkGolden compares a run's counts with the reference.
func checkGolden(variant, test string, got Counts) error {
	want, ok := golden[variant][test]
	if !ok {
		return fmt.Errorf("golden: no entry for %s/%s", variant, test)
	}
	if got != want {
		return fmt.Errorf("golden: %s/%s got %+v, want %+v", variant, test, got, want)
	}
	return nil
}

// ComputeGolden runs every test in every variant and returns the counts,
// failing on any test whose own check fails.
func ComputeGolden() (Golden, error) {
	g := Golden{}
	for _, v := range variants {
		g[v] = map[string]Counts{}
		for _, tc := range soc.Tests() {
			s, verify := tc.Build(variantConfig(v))
			cycles, err := s.Run(maxCycles)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", v, tc.Name, err)
			}
			if err := verify(s); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", v, tc.Name, err)
			}
			g[v][tc.Name] = countsOf(s, cycles)
		}
	}
	return g, nil
}
