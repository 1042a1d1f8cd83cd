package mc_test

// Byte-stability goldens: the examples' and fixtures' rendered reports
// are pinned to files under testdata/, so any change to verdict wording,
// counterexample rendering, or JSON shape shows up as a reviewable
// diff. Regenerate with
//
//	go test ./internal/mc -run TestGolden -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mc"
	"repro/internal/soc"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestGoldenReports(t *testing.T) {
	cfg := soc.DefaultConfig()
	for _, tc := range soc.Fixtures() {
		if tc.Pass != "verify" {
			continue
		}
		t.Run(tc.Name, func(t *testing.T) {
			s, _ := tc.Build(cfg)
			r := mc.Check(s.Sim, mc.Options{})

			var tree bytes.Buffer
			r.WriteTree(&tree)
			checkGolden(t, tc.Name+".tree.golden", tree.Bytes())

			// The fixtures' JSON dumps embed full-SoC counterexample
			// schedules (hundreds of env actors per cycle); the tree
			// goldens pin their human surface, and TestByteStableOutput
			// holds their JSON bytes stable. The closed examples pin
			// both renderings.
			if tc.Name == "mcserdes" || tc.Name == "mcgals" {
				var js bytes.Buffer
				if err := r.WriteJSON(&js); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, tc.Name+".json.golden", js.Bytes())
			}
		})
	}
}
