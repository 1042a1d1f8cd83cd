package ratecheck_test

// Byte-stability goldens: the fixtures' rendered reports are pinned to
// files under testdata/, so any change to diagnostic wording, ordering,
// or JSON shape shows up as a reviewable diff. Regenerate with
//
//	go test ./internal/ratecheck -run TestGolden -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ratecheck"
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

func TestGoldenFixtures(t *testing.T) {
	cfg := soc.DefaultConfig()
	for _, tc := range soc.Fixtures() {
		if tc.Pass != "rateck" {
			continue
		}
		t.Run(tc.Name, func(t *testing.T) {
			s, _ := tc.Build(cfg)
			r := ratecheck.Check(s.Sim)

			var tree bytes.Buffer
			r.WriteTree(&tree)
			checkGolden(t, tc.Name+".tree.golden", tree.Bytes())

			var js bytes.Buffer
			if err := r.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.Name+".json.golden", js.Bytes())
		})
	}
}
