package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/soc"
)

// TestMCReportNeedsOneDesign: -mcjson and -mcvcd hold one design's
// report, so selecting several designs is refused up front with exit 2
// and no file written; one design writes its report.
func TestMCReportNeedsOneDesign(t *testing.T) {
	dir := t.TempDir()
	cfg := soc.DefaultConfig()
	for _, paths := range [][2]string{{filepath.Join(dir, "all.json"), ""}, {"", filepath.Join(dir, "all.vcd")}} {
		if code := runMC(cfg, "all", paths[0], paths[1], 0); code != 2 {
			t.Errorf("runMC(all, %q, %q) = %d, want 2", paths[0], paths[1], code)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("refused run wrote %d files", len(entries))
	}
	one := filepath.Join(dir, "mcserdes.json")
	if code := runMC(cfg, "mcserdes", one, "", 0); code != 0 {
		t.Fatalf("runMC(mcserdes) = %d, want 0", code)
	}
	if _, err := os.Stat(one); err != nil {
		t.Errorf("single-design report not written: %v", err)
	}
}
