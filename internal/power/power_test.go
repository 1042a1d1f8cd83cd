package power

import (
	"math/rand"
	"testing"

	"repro/internal/hls"
	"repro/internal/rtl"
	"repro/internal/synth"
)

func TestFromSimulation(t *testing.T) {
	s, nl := synth.Compile(hls.AdderTreeDesign(8, 16), hls.DefaultConstraints())
	sim, err := rtl.NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 100; k++ {
		sim.Step(s.Design.RandomInputs(r))
	}
	rep := Default16nm.FromSimulation("addtree", sim, nl, &synth.Default16nm, 1100)
	if rep.DynamicMW <= 0 || rep.LeakageMW <= 0 {
		t.Fatalf("non-positive power: %+v", rep)
	}
	if rep.TotalMW != rep.DynamicMW+rep.LeakageMW {
		t.Fatal("total mismatch")
	}

	// Idle stimulus must burn less dynamic power than random stimulus.
	idleSim, err := rtl.NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		idleSim.Step(map[string]uint64{})
	}
	idle := Default16nm.FromSimulation("idle", idleSim, nl, &synth.Default16nm, 1100)
	if idle.DynamicMW >= rep.DynamicMW {
		t.Fatalf("idle dynamic %.4f >= active %.4f", idle.DynamicMW, rep.DynamicMW)
	}
}

func TestVoltageScaling(t *testing.T) {
	low := Default16nm
	low.VDD = 0.6
	_, nl := synth.Compile(hls.MACDesign(8), hls.DefaultConstraints())
	sim, err := rtl.NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	for k := 0; k < 50; k++ {
		sim.Step(map[string]uint64{"a": r.Uint64(), "b": r.Uint64(), "acc": r.Uint64()})
	}
	hi := Default16nm.FromSimulation("hi", sim, nl, &synth.Default16nm, 1100)
	lo := low.FromSimulation("lo", sim, nl, &synth.Default16nm, 1100)
	want := hi.DynamicMW * (0.6 * 0.6) / (0.8 * 0.8)
	if diff := lo.DynamicMW - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("voltage scaling wrong: %.6f vs %.6f", lo.DynamicMW, want)
	}
}

func TestSRAMPower(t *testing.T) {
	p := Default16nm.SRAMPower(1000, 500, 1000, 1000)
	// (1000*4.5 + 500*5.5)/1000 pJ/cycle = 7.25 pJ/cycle at 1 GHz = 7.25 mW
	if p < 7.2 || p > 7.3 {
		t.Fatalf("SRAM power = %f, want ~7.25", p)
	}
	if Default16nm.SRAMPower(1, 1, 0, 1000) != 0 {
		t.Fatal("zero cycles should give zero power")
	}
}

func TestFromActivity(t *testing.T) {
	rep := Default16nm.FromActivity("blk", 100000, 0.1, 1100, 100, 100, 1000)
	if rep.TotalMW <= 0 || rep.SRAMMW <= 0 {
		t.Fatalf("bad report %+v", rep)
	}
}
