package ratecheck_test

import (
	"strings"
	"testing"

	"repro/internal/connections"
	"repro/internal/gals"
	"repro/internal/lint"
	"repro/internal/ratecheck"
	"repro/internal/sim"
)

// one returns the single diagnostic with the given rule, failing the
// test when the count differs — the same helper lint's tests use.
func one(t *testing.T, r *ratecheck.Result, rule string) lint.Diag {
	t.Helper()
	var got []lint.Diag
	for _, d := range r.Diags {
		if d.Rule == rule {
			got = append(got, d)
		}
	}
	if len(got) != 1 {
		t.Fatalf("want exactly one %s diagnostic, got %d (all: %+v)", rule, len(got), r.Diags)
	}
	return got[0]
}

// pipe wires prod.out -> cons.in through a Buffer of the given depth and
// returns both ports for rating.
func pipe(clk *sim.Clock, name, prod, cons string, depth int) (*connections.Out[int], *connections.In[int]) {
	out := connections.NewOut[int]().Owned(clk, prod, "out")
	in := connections.NewIn[int]().Owned(clk, cons, "in")
	connections.Buffer(clk, name, depth, out, in)
	return out, in
}

func TestCleanWithoutDeclarations(t *testing.T) {
	// The opt-in contract: a design that declares nothing gets no
	// diagnostics and only default bounds.
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	pipe(clk, "ab", "a", "b", 2)

	r := ratecheck.Check(s)
	if len(r.Diags) != 0 {
		t.Fatalf("undeclared design diagnosed: %+v", r.Diags)
	}
	if r.TotalChannels != 1 || len(r.Channels) != 0 {
		t.Fatalf("channels: total %d, reported %d", r.TotalChannels, len(r.Channels))
	}
	if b := r.ChannelBound("ab"); b.Num != 1 || b.Den != 1 {
		t.Fatalf("default bound = %s, want 1", b)
	}
	if d := r.ChannelMinDepth("ab"); d != 1 {
		t.Fatalf("default min depth = %d, want 1", d)
	}
}

func TestRate1InconsistentCycle(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	d := s.Design()
	d.DeclareActor("a", sim.ActorSDF, clk, sim.Rat{})
	d.DeclareActor("b", sim.ActorSDF, clk, sim.Rat{})
	aOut := connections.NewOut[int]().Owned(clk, "a", "out").Rated(2, 1)
	bIn := connections.NewIn[int]().Owned(clk, "b", "in").Rated(1, 1)
	connections.Buffer(clk, "ab", 2, aOut, bIn)
	bOut := connections.NewOut[int]().Owned(clk, "b", "out").Rated(1, 1)
	aIn := connections.NewIn[int]().Owned(clk, "a", "in").Rated(1, 1)
	connections.Buffer(clk, "ba", 2, bOut, aIn)

	r := ratecheck.Check(s)
	dg := one(t, r, "RATE-1")
	if dg.Severity != lint.SevError || dg.Path != "ba" {
		t.Fatalf("RATE-1 = %+v", dg)
	}
	for _, want := range []string{"a", "b", "2"} {
		if !strings.Contains(dg.Message, want) {
			t.Errorf("RATE-1 message %q missing %q", dg.Message, want)
		}
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "RATE-1") {
		t.Fatalf("Err() = %v, want RATE-1", err)
	}
}

func TestRate1BalancedCycleClean(t *testing.T) {
	// Same loop, but the return channel declares the matching 1:2 rate:
	// b fires twice per a firing, popping one token each and returning
	// one every other firing. q = (1, 2) balances both channels.
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	d := s.Design()
	d.DeclareActor("a", sim.ActorSDF, clk, sim.Rat{})
	d.DeclareActor("b", sim.ActorSDF, clk, sim.Rat{})
	aOut := connections.NewOut[int]().Owned(clk, "a", "out").Rated(2, 1)
	bIn := connections.NewIn[int]().Owned(clk, "b", "in").Rated(1, 1)
	connections.Buffer(clk, "ab", 2, aOut, bIn)
	bOut := connections.NewOut[int]().Owned(clk, "b", "out").Rated(1, 2)
	aIn := connections.NewIn[int]().Owned(clk, "a", "in").Rated(1, 1)
	connections.Buffer(clk, "ba", 2, bOut, aIn)

	if r := ratecheck.Check(s); len(r.Diags) != 0 {
		t.Fatalf("balanced cycle diagnosed: %+v", r.Diags)
	}
}

func TestRate1SwitchActorBreaksRegion(t *testing.T) {
	// The same inconsistent loop, but b is a switch actor: no balance
	// equation may cross it, so the conflict vanishes by design.
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	d := s.Design()
	d.DeclareActor("a", sim.ActorSDF, clk, sim.Rat{})
	d.DeclareActor("b", sim.ActorSwitch, clk, sim.Rat{})
	aOut := connections.NewOut[int]().Owned(clk, "a", "out").Rated(2, 1)
	bIn := connections.NewIn[int]().Owned(clk, "b", "in").Rated(1, 1)
	connections.Buffer(clk, "ab", 2, aOut, bIn)
	bOut := connections.NewOut[int]().Owned(clk, "b", "out").Rated(1, 1)
	aIn := connections.NewIn[int]().Owned(clk, "a", "in").Rated(1, 1)
	connections.Buffer(clk, "ba", 2, bOut, aIn)

	r := ratecheck.Check(s)
	if len(r.Diags) != 0 {
		t.Fatalf("switch-broken region diagnosed: %+v", r.Diags)
	}
	if r.ActorsSDF != 1 || r.ActorsSwitch != 1 {
		t.Fatalf("actors = %d sdf + %d switch", r.ActorsSDF, r.ActorsSwitch)
	}
}

func TestRate2FloodedAndStarved(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	d := s.Design()
	// fast (1 firing/cycle) -> slow (1 firing / 2 cycles): flooded.
	d.DeclareActor("fast", sim.ActorSDF, clk, sim.NewRat(1, 1))
	d.DeclareActor("slow", sim.ActorSDF, clk, sim.NewRat(1, 2))
	fOut := connections.NewOut[int]().Owned(clk, "fast", "out").Rated(1, 1)
	sIn := connections.NewIn[int]().Owned(clk, "slow", "in").Rated(1, 1)
	connections.Buffer(clk, "fs", 2, fOut, sIn)
	// slow -> eager (1 firing/cycle): starved.
	sOut := connections.NewOut[int]().Owned(clk, "slow", "out").Rated(1, 1)
	d.DeclareActor("eager", sim.ActorSDF, clk, sim.NewRat(1, 1))
	eIn := connections.NewIn[int]().Owned(clk, "eager", "in").Rated(1, 1)
	connections.Buffer(clk, "se", 2, sOut, eIn)

	r := ratecheck.Check(s)
	if r.Errors() != 0 || r.Warnings() != 2 {
		t.Fatalf("want 2 warnings, got %d errors %d warnings: %+v", r.Errors(), r.Warnings(), r.Diags)
	}
	var flooded, starved lint.Diag
	for _, dg := range r.Diags {
		if strings.Contains(dg.Message, "flooded") {
			flooded = dg
		}
		if strings.Contains(dg.Message, "starved") {
			starved = dg
		}
	}
	if flooded.Path != "fs" || starved.Path != "se" {
		t.Fatalf("flooded at %q, starved at %q", flooded.Path, starved.Path)
	}
	// The flooded channel's bound is throttled by the slow consumer.
	if b := r.ChannelBound("fs"); b.Num != 1 || b.Den != 2 {
		t.Fatalf("fs bound = %s, want 1/2", b)
	}
}

func TestRate3UnderProvisionedBuffer(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, _ := pipe(clk, "narrow", "burst", "sink", 2)
	out.Rated(8, 1)

	r := ratecheck.Check(s)
	dg := one(t, r, "RATE-3")
	if dg.Severity != lint.SevWarning || dg.Path != "narrow" {
		t.Fatalf("RATE-3 = %+v", dg)
	}
	if !strings.Contains(dg.Hint, "at least 8") {
		t.Fatalf("RATE-3 hint %q should recommend the minimal depth", dg.Hint)
	}
	if d := r.ChannelMinDepth("narrow"); d != 8 {
		t.Fatalf("min depth = %d, want 8 (8 + 1 - gcd)", d)
	}
}

func TestRate3CrossingDepthOne(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 1000, 0)
	b := s.AddClock("b", 1300, 0)
	gals.NewBruteForceSyncFIFO[int](s, "x", a, b, 1)

	dg := one(t, ratecheck.Check(s), "RATE-3")
	if dg.Path != "x" || !strings.Contains(dg.Message, "round trip") {
		t.Fatalf("crossing RATE-3 = %+v", dg)
	}
}

func TestRate4OverProvisionedBuffer(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in := pipe(clk, "wide", "src", "dst", 64)
	out.Rated(1, 1)
	in.Rated(1, 1)

	dg := one(t, ratecheck.Check(s), "RATE-4")
	if dg.Severity != lint.SevWarning || dg.Path != "wide" {
		t.Fatalf("RATE-4 = %+v", dg)
	}
}

func TestRate4SilentOnDefaults(t *testing.T) {
	// A deep buffer with undeclared rates is not a finding: the default
	// rate is an assumption, not a declaration worth warning about.
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	pipe(clk, "deep", "src", "dst", 64)

	if r := ratecheck.Check(s); len(r.Diags) != 0 {
		t.Fatalf("undeclared deep buffer diagnosed: %+v", r.Diags)
	}
}

func TestDomainAndCrossingBounds(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 1000, 0) // 1 ns
	b := s.AddClock("b", 2000, 0) // 2 ns
	d := s.Design()
	// A half-rate SDF producer in domain a tightens a's bound to 1/2.
	d.DeclareActor("p", sim.ActorSDF, a, sim.NewRat(1, 2))
	pOut := connections.NewOut[int]().Owned(a, "p", "out").Rated(1, 1)
	cIn := connections.NewIn[int]().Owned(a, "c", "in")
	connections.Buffer(a, "pc", 2, pOut, cIn)
	gals.NewPausibleBisyncFIFO[int](s, "x", a, b, 4, 40)
	pipe(b, "bb", "u", "v", 2)

	r := ratecheck.Check(s)
	if len(r.Domains) != 2 {
		t.Fatalf("domains = %+v", r.Domains)
	}
	da, db := r.Domains[0], r.Domains[1]
	if da.Clock != "a" || da.Bound.Num != 1 || da.Bound.Den != 2 {
		t.Fatalf("domain a = %+v", da)
	}
	// 1/2 token per 1000 ps cycle = 1/2 token per ns.
	if da.BoundNS.Num != 1 || da.BoundNS.Den != 2 {
		t.Fatalf("domain a per-ns = %s", da.BoundNS)
	}
	if db.Clock != "b" || db.Bound.Num != 1 || db.Bound.Den != 1 {
		t.Fatalf("domain b = %+v", db)
	}
	// Domain b: 1 token per 2000 ps cycle = 1/2 token per ns.
	if db.BoundNS.Num != 1 || db.BoundNS.Den != 2 {
		t.Fatalf("domain b per-ns = %s", db.BoundNS)
	}

	if len(r.Crossings) != 1 {
		t.Fatalf("crossings = %+v", r.Crossings)
	}
	x := r.Crossings[0]
	// One token per slow-side (2000 ps) cycle = 1/2 token per ns.
	if x.Name != "x" || x.Style != "pausible" || x.BoundNS.Num != 1 || x.BoundNS.Den != 2 {
		t.Fatalf("crossing = %+v", x)
	}
	if r.EndToEnd == nil || r.EndToEnd.Num != 1 || r.EndToEnd.Den != 2 {
		t.Fatalf("end-to-end = %v", r.EndToEnd)
	}
}

func TestWriteTreeGolden(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, _ := pipe(clk, "soc/narrow", "soc/burst", "soc/sink", 2)
	out.Rated(4, 1)

	var b strings.Builder
	ratecheck.Check(s).WriteTree(&b)
	want := `soc
  narrow
    RATE-3 warning = capacity 2 is below the minimal depth 4 for rates 4 -> 1 (one firing bursts more than the buffer holds)
      hint: resize the FIFO to at least 4, or lower the producer burst
channels:
  soc/narrow: cap 2 (min 4), <= 1 tok/cycle on clk
domains:
  clk (1000 ps): 1 channels, <= 1 tok/cycle (<= 1 tok/ns)
rateck: 1 channels (1 reported), 0 sdf + 0 switch actors, 1 rated ports, 0 crossings: 0 errors, 1 warnings
`
	if b.String() != want {
		t.Fatalf("tree output:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWriteJSONStable(t *testing.T) {
	build := func() *ratecheck.Result {
		s := sim.New()
		clk := s.AddClock("clk", 1000, 0)
		out, in := pipe(clk, "wide", "src", "dst", 64)
		out.Rated(1, 1)
		in.Rated(1, 1)
		return ratecheck.Check(s)
	}
	var b1, b2 strings.Builder
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("JSON output is not byte-stable across identical builds")
	}
	for _, want := range []string{`"rule": "RATE-4"`, `"warnings": 1`, `"summary"`, `"num"`, `"den"`} {
		if !strings.Contains(b1.String(), want) {
			t.Errorf("JSON dump missing %s:\n%s", want, b1.String())
		}
	}
}
