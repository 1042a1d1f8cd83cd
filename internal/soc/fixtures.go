package soc

import "errors"

// Fixture is a design shipped to exercise one analysis pass: a full SoC
// with one hazard wired in, or a minimal closed model for the model
// checker. Fixtures are selectable by exact name but never part of
// "all", and they carry no firmware: they are checked, never run.
type Fixture struct {
	TestCase
	// Pass names the internal/analysis pass the fixture exercises
	// (lint, rateck or verify); empty for a shipped, runnable test.
	Pass string
	// Fails says whether that pass must report an error. The clean
	// fixtures (badbuf only warns; mcserdes and mcgals must verify) pin
	// the other side: a pass that starts erroring on them went wrong.
	Fails bool
}

// Fixtures returns every analysis fixture, grouped by pass.
func Fixtures() []Fixture {
	return []Fixture{
		{TestCase{"badcdc", buildBadCDC}, "lint", true},
		{TestCase{"badloop", buildBadLoop}, "lint", true},
		{TestCase{"badport", buildBadPort}, "lint", true},
		{TestCase{"badrate", buildBadRate}, "rateck", true},
		{TestCase{"badbuf", buildBadBuf}, "rateck", false},
		{TestCase{"mcserdes", buildMCSerdes}, "verify", false},
		{TestCase{"mcgals", buildMCGals}, "verify", false},
		{TestCase{"mcdeadlock", buildMCDeadlock}, "verify", true},
		{TestCase{"mcbufeqv", buildMCBufEqv}, "verify", true},
	}
}

// Lookup finds a design by name among the shipped tests (Tests and
// ExtraTests, returned with an empty Pass) and the fixtures. Every
// analysis pass accepts every design it finds; only a design with an
// empty Pass can be simulated.
func Lookup(name string) (Fixture, bool) {
	for _, tc := range append(Tests(), ExtraTests()...) {
		if tc.Name == name {
			return Fixture{TestCase: tc}, true
		}
	}
	for _, f := range Fixtures() {
		if f.Name == name {
			return f, true
		}
	}
	return Fixture{}, false
}

func neverRun(*SoC) error {
	return errors.New("soc: fixtures are static designs for the analysis passes; they cannot run")
}
