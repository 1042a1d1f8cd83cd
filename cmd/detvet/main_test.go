package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runOn(t *testing.T, src string) []finding { return runOnOpts(t, src, false) }

func runOnOpts(t *testing.T, src string, noFloat bool) []finding {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := checkDir(dir, noFloat)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestFlagsTimeImport(t *testing.T) {
	fs := runOn(t, `package x
import "time"
var T = time.Now
`)
	if len(fs) != 1 || !strings.Contains(fs[0].msg, `imports "time"`) {
		t.Fatalf("findings = %+v", fs)
	}
}

func TestFlagsGlobalRand(t *testing.T) {
	fs := runOn(t, `package x
import "math/rand"
func f() int { return rand.Intn(4) }
func g() *rand.Rand { return rand.New(rand.NewSource(1)) }
`)
	if len(fs) != 1 || !strings.Contains(fs[0].msg, "rand.Intn") {
		t.Fatalf("findings = %+v", fs)
	}
}

func TestFlagsMapRange(t *testing.T) {
	fs := runOn(t, `package x
type s struct{ m map[int]int }
func f(v *s) {
	for k := range v.m {
		_ = k
	}
	local := make(map[string]bool)
	for k := range local {
		_ = k
	}
}
func g(slice []int) {
	for i := range slice {
		_ = i
	}
}
`)
	if len(fs) != 2 {
		t.Fatalf("findings = %+v, want the two map ranges only", fs)
	}
}

func TestLocalMapsDoNotLeakAcrossFunctions(t *testing.T) {
	// A map named "out" in one function must not taint a slice named
	// "out" in another.
	fs := runOn(t, `package x
func a() {
	out := make(map[int]int)
	_ = out
}
func b(out []int) {
	for i := range out {
		_ = i
	}
}
`)
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want none", fs)
	}
}

// repoDirs returns the directories detvet checks in this repository.
func repoDirs(t *testing.T) []string {
	t.Helper()
	dirs, err := checkedDirs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

func TestRTLUnderDeterminismContract(t *testing.T) {
	// The gate-level evaluator's VCD byte stream must be identical run
	// to run; keep it inside the no-map-range contract.
	for _, d := range repoDirs(t) {
		if d == "internal/rtl" {
			return
		}
	}
	t.Fatal("internal/rtl missing from checkedDirs")
}

func TestFlagsFloats(t *testing.T) {
	src := `package x
type r struct{ v float64 }
func f(x float32) float64 { return float64(x) * 0.5 }
func g(n int) int { return n * 2 }
`
	if fs := runOnOpts(t, src, false); len(fs) != 0 {
		t.Fatalf("float rule fired outside a float-free dir: %+v", fs)
	}
	fs := runOnOpts(t, src, true)
	// One per float mention: the field type, the param type, the result
	// type, the conversion, and the 0.5 literal.
	if len(fs) != 5 {
		t.Fatalf("findings = %+v, want 5", fs)
	}
	for _, f := range fs {
		if !strings.Contains(f.msg, "exact rational") {
			t.Fatalf("unexpected finding: %+v", f)
		}
	}
}

func TestFloatWaiver(t *testing.T) {
	fs := runOnOpts(t, `package x
//detvet:ok display-only percentage, never fed back into a bound
func pct(n, d int) float64 {
	return float64(n) //detvet:ok same
}
`, true)
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want waived", fs)
	}
}

func TestRatecheckUnderFloatFreeContract(t *testing.T) {
	if !floatFreeDirs["internal/ratecheck"] {
		t.Fatal("internal/ratecheck missing from floatFreeDirs")
	}
	found := false
	for _, d := range repoDirs(t) {
		if d == "internal/ratecheck" {
			found = true
		}
	}
	if !found {
		t.Fatal("internal/ratecheck missing from checkedDirs")
	}
}

func TestWaiverComment(t *testing.T) {
	fs := runOn(t, `package x
func f() {
	m := make(map[int]int)
	for k := range m { //detvet:ok keys are summed, order-free
		_ = k
	}
}
`)
	if len(fs) != 0 {
		t.Fatalf("findings = %+v, want waived", fs)
	}
}
