package ratecheck_test

// Shipped-design cleanliness, mirroring lint's examples_test: every
// design the repo ships must pass the rate analysis with zero
// diagnostics under both clocking styles — the opt-in contract means a
// design only collects findings where someone declared rates, and the
// shipped declarations (router/NI/node switch actors) are all
// consistent. The deliberately mis-rated fixtures are pinned to their
// exact expected findings.

import (
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/connections"
	"repro/internal/lint"
	"repro/internal/matchlib"
	"repro/internal/noc"
	"repro/internal/ratecheck"
	"repro/internal/sim"
	"repro/internal/soc"
)

func TestShippedSoCDesignsRateClean(t *testing.T) {
	for _, galsOn := range []bool{false, true} {
		for _, tc := range append(soc.Tests(), soc.ExtraTests()...) {
			cfg := soc.DefaultConfig()
			cfg.GALS = galsOn
			s, _ := tc.Build(cfg)
			r := ratecheck.Check(s.Sim)
			if r.Errors() != 0 || r.Warnings() != 0 {
				var b strings.Builder
				r.WriteTree(&b)
				t.Errorf("%s (gals=%v):\n%s", tc.Name, galsOn, b.String())
			}
			if r.ActorsSwitch == 0 {
				t.Errorf("%s: no switch actors declared — the NoC should register its routers and NIs", tc.Name)
			}
			if galsOn && (len(r.Crossings) == 0 || r.EndToEnd == nil) {
				t.Errorf("%s: GALS build reported no crossing bounds", tc.Name)
			}
		}
	}
}

func TestNocTopologiesRateClean(t *testing.T) {
	t.Run("mesh", func(t *testing.T) {
		s := sim.New()
		clk := s.AddClock("clk", 1000, 0)
		noc.BuildMesh(clk, "m", 3, 3, 2, 4)
		r := ratecheck.Check(s)
		if len(r.Diags) != 0 {
			var b strings.Builder
			r.WriteTree(&b)
			t.Fatalf("mesh:\n%s", b.String())
		}
		if r.ActorsSwitch != 18 { // 9 routers + 9 NIs
			t.Fatalf("mesh switch actors = %d, want 18", r.ActorsSwitch)
		}
	})
}

type rateMsg struct{ v uint64 }

func (m rateMsg) PackBits() bitvec.Vec { return bitvec.FromUint64(m.v, 40) }

// serdesChain builds src -> serializer -> link -> deserializer -> sink,
// 40-bit messages over 16-bit flits (3 flits each), with the serializer
// and deserializer declared as SDF actors firing once per 3 cycles: the
// serializer pops 1 message and pushes 3 flits per firing, the
// deserializer the mirror image.
func serdesChain(linkDepth int) *sim.Simulator {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	d := s.Design()
	ser := matchlib.NewSerializer[rateMsg](clk, "ser", 16)
	d.DeclareActor("ser", sim.ActorSDF, clk, sim.NewRat(1, 3))
	ser.In.Owned(clk, "ser", "in").Rated(1, 1)
	ser.Out.Owned(clk, "ser", "out").Rated(3, 1)
	des := matchlib.NewDeserializer(clk, "des", 40, func(b bitvec.Vec) rateMsg {
		return rateMsg{v: b.Uint64()}
	})
	d.DeclareActor("des", sim.ActorSDF, clk, sim.NewRat(1, 3))
	des.In.Owned(clk, "des", "in").Rated(3, 1)
	des.Out.Owned(clk, "des", "out").Rated(1, 1)

	srcOut := connections.NewOut[rateMsg]()
	connections.Buffer(clk, "src", 2, srcOut, ser.In)
	connections.Buffer(clk, "link", linkDepth, ser.Out, des.In)
	sinkIn := connections.NewIn[rateMsg]()
	connections.Buffer(clk, "sink", 2, des.Out, sinkIn)
	return s
}

// TestSerdesChainRateClean checks the balance equations accept the
// serdes chain, with the link bound tightened by the
// 1-firing-per-3-cycles service.
func TestSerdesChainRateClean(t *testing.T) {
	r := ratecheck.Check(serdesChain(3))
	if len(r.Diags) != 0 {
		var b strings.Builder
		r.WriteTree(&b)
		t.Fatalf("serdes chain:\n%s", b.String())
	}
	if r.ActorsSDF != 2 || r.RatedPorts != 4 {
		t.Fatalf("actors = %d, rated ports = %d", r.ActorsSDF, r.RatedPorts)
	}
	// Each firing moves 3 flits in 3 cycles: the link bound is 1.
	if b := r.ChannelBound("link"); b.Num != 1 || b.Den != 1 {
		t.Fatalf("link bound = %s", b)
	}
	// A 3-flit burst against 3-flit drain needs 3 + 3 - 3 = 3 slots.
	if d := r.ChannelMinDepth("link"); d != 3 {
		t.Fatalf("link min depth = %d, want 3", d)
	}
	// The message-side channels move 1 token per 3 cycles.
	if b := r.ChannelBound("src"); b.Num != 1 || b.Den != 3 {
		t.Fatalf("src bound = %s, want 1/3", b)
	}
}

// TestSerdesChainUnderBuffered shrinks the flit link below the burst
// size and expects the RATE-3 recommendation.
func TestSerdesChainUnderBuffered(t *testing.T) {
	r := ratecheck.Check(serdesChain(1))
	dg := one(t, r, "RATE-3")
	if dg.Path != "link" || !strings.Contains(dg.Hint, "at least 3") {
		t.Fatalf("RATE-3 = %+v", dg)
	}
}

func TestRateFixtures(t *testing.T) {
	cfg := soc.DefaultConfig()
	var fixtures []soc.Fixture
	byName := map[string]soc.Fixture{}
	for _, tc := range soc.Fixtures() {
		if tc.Pass == "rateck" {
			fixtures = append(fixtures, tc)
			byName[tc.Name] = tc
		}
	}

	t.Run("badrate", func(t *testing.T) {
		s, run := byName["badrate"].Build(cfg)
		if err := run(s); err == nil {
			t.Fatal("fixture claims to be runnable")
		}
		r := ratecheck.Check(s.Sim)
		if r.Errors() != 1 || r.Warnings() != 1 {
			t.Fatalf("badrate: %d errors, %d warnings: %+v", r.Errors(), r.Warnings(), r.Diags)
		}
		if d := one(t, r, "RATE-1"); d.Path != "fixture/ba" {
			t.Fatalf("RATE-1 = %+v", d)
		}
		if d := one(t, r, "RATE-2"); d.Path != "fixture/fs" || !strings.Contains(d.Message, "flooded") {
			t.Fatalf("RATE-2 = %+v", d)
		}
	})
	t.Run("badbuf", func(t *testing.T) {
		s, _ := byName["badbuf"].Build(cfg)
		r := ratecheck.Check(s.Sim)
		if r.Errors() != 0 || r.Warnings() != 2 {
			t.Fatalf("badbuf: %d errors, %d warnings: %+v", r.Errors(), r.Warnings(), r.Diags)
		}
		if d := one(t, r, "RATE-3"); d.Path != "fixture/narrow" {
			t.Fatalf("RATE-3 = %+v", d)
		}
		if d := one(t, r, "RATE-4"); d.Path != "fixture/wide" {
			t.Fatalf("RATE-4 = %+v", d)
		}
	})

	// The fixtures must still be structurally clean — their hazards are
	// rate hazards, not lint hazards, so each pass finds only its own.
	for _, tc := range fixtures {
		s, _ := tc.Build(cfg)
		if lr := lint.Check(s.Sim); lr.Errors() != 0 {
			var b strings.Builder
			lr.WriteTree(&b)
			t.Errorf("%s fails lint:\n%s", tc.Name, b.String())
		}
	}
}
