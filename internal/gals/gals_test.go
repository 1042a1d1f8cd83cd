package gals

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// crossDomain pushes n sequenced values from a producer domain to a
// consumer domain through the given FIFO push/pop closures and verifies
// exact in-order delivery. It returns total consumer-cycle latency.
func crossDomain(t *testing.T, s *sim.Simulator, prodClk, consClk *sim.Clock,
	push func(th *sim.Thread, v int), pop func(th *sim.Thread) int, n int) {
	t.Helper()
	prodClk.Spawn("producer", func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			push(th, i)
			th.Wait()
		}
	})
	got := 0
	consClk.Spawn("consumer", func(th *sim.Thread) {
		for got < n {
			v := pop(th)
			if v != got {
				t.Errorf("received %d, want %d (loss/dup/reorder)", v, got)
			}
			got++
			th.Wait()
		}
		th.Sim().Stop()
	})
	s.Run(sim.Time(uint64(n) * 1_000_000))
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("delivered %d/%d", got, n)
	}
}

// Property: both FIFO styles deliver exactly and in order across many
// random clock-period/phase pairs, including near-aliased clocks.
func TestCDCFifosNoLossAcrossRandomClocks(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for iter := 0; iter < 40; iter++ {
		pa := sim.Time(700 + r.Intn(800))
		pb := sim.Time(700 + r.Intn(800))
		if iter%5 == 0 {
			pb = pa + sim.Time(r.Intn(3)) // near-aliased, worst case for CDC
		}
		phase := sim.Time(r.Intn(1000))

		s := sim.New()
		a := s.AddClock("a", pa, 0)
		b := s.AddClock("b", pb, phase)
		pf := NewPausibleBisyncFIFO[int](s, "pf", a, b, 4, 40)
		crossDomain(t, s, a, b, pf.Push, pf.Pop, 200)

		s2 := sim.New()
		a2 := s2.AddClock("a", pa, 0)
		b2 := s2.AddClock("b", pb, phase)
		bf := NewBruteForceSyncFIFO[int](s2, "bf", a2, b2, 4)
		crossDomain(t, s2, a2, b2, bf.Push, bf.Pop, 200)
	}
}

func TestPausibleLowerLatencyThanBruteForce(t *testing.T) {
	// Measure single-message crossing latency in consumer time.
	latency := func(pausible bool) sim.Time {
		s := sim.New()
		a := s.AddClock("a", 1000, 0)
		b := s.AddClock("b", 1300, 170)
		var sent, recv sim.Time
		var push func(*sim.Thread, int)
		var popNB func() (int, bool)
		if pausible {
			f := NewPausibleBisyncFIFO[int](s, "pf", a, b, 4, 40)
			push, popNB = f.Push, f.PopNB
		} else {
			f := NewBruteForceSyncFIFO[int](s, "bf", a, b, 4)
			push, popNB = f.Push, f.PopNB
		}
		a.Spawn("p", func(th *sim.Thread) {
			th.WaitN(3)
			sent = s.Now()
			push(th, 42)
		})
		b.Spawn("c", func(th *sim.Thread) {
			for {
				if _, ok := popNB(); ok {
					recv = s.Now()
					th.Sim().Stop()
				}
				th.Wait()
			}
		})
		s.Run(1_000_000)
		return recv - sent
	}
	lp, lb := latency(true), latency(false)
	if lp >= lb {
		t.Fatalf("pausible latency %dps >= brute-force %dps", lp, lb)
	}
}

func TestPausesHappenForAliasedClocks(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 1000, 0)
	b := s.AddClock("b", 1000, 20) // 20ps offset, inside a 40ps window
	f := NewPausibleBisyncFIFO[int](s, "pf", a, b, 4, 40)
	crossDomain(t, s, a, b, f.Push, f.Pop, 100)
	if f.Pauses == 0 {
		t.Fatal("no pauses for 20ps-offset clocks with 40ps window")
	}
}

// Regression for the conflict-window phase bug: the window must be
// computed against the receiving clock's actual next edge, not
// now%period. Clock b is paused before traffic starts, shifting its
// edges off period multiples; the old modulo test then paused at the
// wrong phase (2980 is "inside the window" mod 1000 but 520ps from the
// real edge) and missed true conflicts (3480 is "safe" mod 1000 but
// 20ps from the real edge at 3500).
func TestPauseWindowTracksShiftedEdges(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 1000, 0)
	b := s.AddClock("b", 1000, 0)
	b.Pause(1500) // shift b's edges to 1500, 2500, 3500, ...
	f := NewPausibleBisyncFIFO[int](s, "pf", a, b, 4, 40)

	var bEdges []sim.Time
	b.AtCommitNamed("edges", func() { bEdges = append(bEdges, s.Now()) })

	// Probe clocks fire exactly one edge each inside the run window,
	// modelling a pointer crossing toward b at that instant.
	s.AddClock("probe1", 100_000, 2980).Spawn("far", func(th *sim.Thread) {
		before := f.Pauses
		f.pauseIfConflict(b, th.Clock())
		if f.Pauses != before {
			t.Errorf("paused at t=2980: next b edge is 520ps away, outside the 40ps window")
		}
	})
	s.AddClock("probe2", 100_000, 3480).Spawn("near", func(th *sim.Thread) {
		before := f.Pauses
		f.pauseIfConflict(b, th.Clock())
		if f.Pauses != before+1 {
			t.Errorf("no pause at t=3480: next b edge at 3500 is 20ps away, inside the 40ps window")
		}
	})

	s.Run(4000)
	want := []sim.Time{1500, 2500, 3520}
	if len(bEdges) != len(want) {
		t.Fatalf("b edges at %v, want %v", bEdges, want)
	}
	for i := range want {
		if bEdges[i] != want[i] {
			t.Fatalf("b edge %d at %d, want %d (conflict at 3480 must stretch the 3500 edge to 3520)", i, bEdges[i], want[i])
		}
	}
}

// Crossings stay loss-free when the receiving clock was paused before
// traffic started (its edges permanently shifted off period multiples).
func TestCDCAfterPrePause(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 1000, 0)
	b := s.AddClock("b", 1000, 0)
	b.Pause(1730)
	f := NewPausibleBisyncFIFO[int](s, "pf", a, b, 4, 40)
	crossDomain(t, s, a, b, f.Push, f.Pop, 150)
}

func TestBruteForceTwoCycleLatencyFloor(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 1000, 0)
	b := s.AddClock("b", 1000, 500)
	f := NewBruteForceSyncFIFO[int](s, "bf", a, b, 4)
	var sentCycle, recvCycle uint64
	a.Spawn("p", func(th *sim.Thread) {
		th.WaitN(2)
		f.Push(th, 1)
		sentCycle = b.Cycle()
	})
	b.Spawn("c", func(th *sim.Thread) {
		for {
			if _, ok := f.PopNB(); ok {
				recvCycle = b.Cycle()
				th.Sim().Stop()
			}
			th.Wait()
		}
	})
	s.Run(1_000_000)
	if recvCycle-sentCycle < 2 {
		t.Fatalf("brute-force delivered after %d consumer cycles, want >= 2", recvCycle-sentCycle)
	}
}

func TestAdaptiveClockGainsOverFixed(t *testing.T) {
	e := RunMarginExperiment(900, 0.10, 3_000_000, 7)
	if e.AdaptiveMHz <= e.FixedMHz {
		t.Fatalf("adaptive %.1f MHz <= fixed %.1f MHz", e.AdaptiveMHz, e.FixedMHz)
	}
	if e.GainPct < 2 || e.GainPct > 20 {
		t.Fatalf("gain %.1f%% outside plausible 2-20%% range", e.GainPct)
	}
}

func TestSupplyNoiseBounds(t *testing.T) {
	sn := NewSupplyNoise(0.80, 0.10, 3)
	for ti := sim.Time(0); ti < 1_000_000; ti += 997 {
		v := sn.At(ti)
		if v > 0.80+1e-9 || v < sn.VMin()-1e-9 {
			t.Fatalf("supply %f outside [%f, 0.80]", v, sn.VMin())
		}
	}
}

func TestGALSOverheadUnder3Percent(t *testing.T) {
	// The paper: "we estimate this overhead to be less than 3% for
	// typical partition sizes." The testchip's partitions (one router
	// interface each) are hundreds of K to ~1M+ gates.
	for _, gates := range []int{300_000, 500_000, 1_000_000, 2_000_000} {
		o := GALSOverhead(gates, 2)
		if o.OverheadPct >= 3 {
			t.Errorf("partition %d gates: overhead %.2f%% >= 3%%", gates, o.OverheadPct)
		}
	}
	// Tiny partitions do exceed 3% — the trend the model must show.
	if GALSOverhead(50_000, 4).OverheadPct < 3 {
		t.Error("50K-gate partition should exceed 3% overhead")
	}
}

func TestSyncMTBFModel(t *testing.T) {
	// At 1.1 GHz with data toggling every ~4 cycles: one flop is
	// hopeless, two flops give decades, three give absurd safety.
	one := SyncMTBF(1, 909, 3636)
	two := SyncMTBF(2, 909, 3636)
	three := SyncMTBF(3, 909, 3636)
	if !(one < two && two < three) {
		t.Fatalf("MTBF not monotone: %g %g %g", one, two, three)
	}
	if one > 1 {
		t.Fatalf("single-flop MTBF %g s implausibly safe", one)
	}
	const year = 365.25 * 24 * 3600
	if two < 100*year {
		t.Fatalf("two-flop MTBF %g s — model constants off", two)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero flops")
		}
	}()
	SyncMTBF(0, 909, 3636)
}

func TestPausibleFIFOBackpressure(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 1000, 0)
	s.AddClock("b", 1000, 500)
	f := NewPausibleBisyncFIFO[int](s, "pf", a, s.AddClock("b2", 1000, 700), 2, 40)
	pushed := 0
	a.Spawn("p", func(th *sim.Thread) {
		for i := 0; i < 10; i++ {
			if f.PushNB(i) {
				pushed++
			}
			th.Wait()
		}
		th.Sim().Stop()
	})
	s.Run(1_000_000)
	if pushed != 2 {
		t.Fatalf("pushed %d into depth-2 FIFO with no consumer, want 2", pushed)
	}
}
