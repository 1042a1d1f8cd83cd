package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from a fresh run")

// TestGolden recomputes the determinism reference every soc iteration is
// checked against. Run `go test . -run Golden -update` after a change that
// is meant to move simulated cycle counts.
func TestGolden(t *testing.T) {
	t.Parallel()
	g, err := ComputeGolden()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile("testdata/golden.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(data, goldenJSON) {
		t.Errorf("simulated counts differ from testdata/golden.json; got\n%s", data)
	}
}
