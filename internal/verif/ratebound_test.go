package verif

// Differential validation of the static rate analysis: run real
// dynamic workloads — the stall-hunter, a NoC mesh under traffic, a
// GALS crossing, a matchlib serdes chain — and assert the measured
// counters never exceed ratecheck's bounds, then break the analysis on
// purpose and assert the check notices.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/connections"
	"repro/internal/gals"
	"repro/internal/matchlib"
	"repro/internal/noc"
	"repro/internal/ratecheck"
	"repro/internal/sim"
)

// rateViolations holds ratecheck to its soundness contract after a
// run: it reads the measured channel and synchronizer counters out of
// the metrics registry and returns one line per counter beyond its
// static bound, with the number of objects it checked. A steady-state
// bound cannot see a channel's initial buffer fill plus one in-flight
// token, so a channel must satisfy
//
//	transfers*den <= num*cycles + (capacity+1)*den
//
// in exact integers; ChannelBound is never above one, so this also
// holds the one-token-per-cycle port limit. A crossing moves at most one
// token per cycle of its slower side (the one that turned fewer cycles)
// plus its depth and one in flight. Neither may hold more than its
// capacity.
func rateViolations(s *sim.Simulator, r *ratecheck.Result) (vs []string, checked int) {
	obs := map[[2]string]float64{}
	for _, m := range s.Metrics().Snapshot() {
		obs[[2]string{m.Path, m.Name}] = m.Value
	}
	for _, c := range s.Design().Channels() {
		tf, ok := obs[[2]string{c.Name, "transfers"}]
		if !ok {
			continue // not a counter-bearing channel (never constructed)
		}
		checked++
		transfers, cycles := uint64(tf), c.Clock.Cycle()
		capacity := uint64(max(c.Capacity, 1))
		b := r.ChannelBound(c.Name)
		if transfers*uint64(b.Den) > uint64(b.Num)*cycles+(capacity+1)*uint64(b.Den) {
			vs = append(vs, fmt.Sprintf("%s: %d transfers in %d cycles beat %s tok/cycle (+%d slack)",
				c.Name, transfers, cycles, b, capacity+1))
		}
		for _, key := range []string{"occupancy", "occupancy_mean"} {
			if occ := obs[[2]string{c.Name, key}]; occ > float64(capacity) {
				vs = append(vs, fmt.Sprintf("%s: %s %g exceeds capacity %d", c.Name, key, occ, capacity))
			}
		}
	}
	for _, sy := range s.Design().Syncs() {
		tf, ok := obs[[2]string{sy.Name, "transfers"}]
		if !ok {
			continue
		}
		checked++
		transfers, slow := uint64(tf), min(sy.Prod.Cycle(), sy.Cons.Cycle())
		depth := uint64(sy.Depth)
		if transfers > slow+depth+1 {
			vs = append(vs, fmt.Sprintf("%s: %d transfers in %d slow-side cycles beat one token per cycle (+%d slack)",
				sy.Name, transfers, slow, depth+1))
		}
		if occ := obs[[2]string{sy.Name, "occupancy"}]; occ > float64(depth) {
			vs = append(vs, fmt.Sprintf("%s: occupancy %g exceeds depth %d", sy.Name, occ, depth))
		}
	}
	return vs, checked
}

func TestCrossCheckStallHunt(t *testing.T) {
	for _, pStall := range []float64{0, 0.3} {
		t.Run(fmt.Sprintf("p%.1f", pStall), func(t *testing.T) {
			checkedAny := false
			res := runStallHunt(context.TODO(), pStall, 7, 200, nil, func(s *sim.Simulator) {
				r := ratecheck.Check(s)
				if r.Errors() != 0 {
					t.Fatalf("stallhunt testbench fails ratecheck: %v", r.Err())
				}
				vs, checked := rateViolations(s, r)
				if len(vs) > 0 {
					t.Errorf("bounds violated:\n%s", strings.Join(vs, "\n"))
				}
				if checked < 3 { // channels a, b, m at minimum
					t.Fatalf("checked only %d objects", checked)
				}
				checkedAny = true
			})
			if !checkedAny {
				t.Fatal("inspect hook never ran")
			}
			if res.Delivered == 0 {
				t.Fatal("no traffic delivered; the cross-check proved nothing")
			}
		})
	}
}

func TestCrossCheckMesh(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	const w, h = 3, 3
	n := w * h
	m := noc.BuildMesh(clk, "m", w, h, 2, 4)

	total := 0
	for src := 0; src < n; src++ {
		src := src
		var prog []noc.Packet
		for k := 0; k < 5; k++ {
			dst := (src + 1 + k) % n
			if dst == src {
				continue
			}
			prog = append(prog, noc.Packet{
				Src: src, Dst: dst, ID: uint64(src*100 + k),
				Payload: []uint64{uint64(k), uint64(src)},
			})
			total++
		}
		clk.Spawn(fmt.Sprintf("gen%d", src), func(th *sim.Thread) {
			for _, p := range prog {
				m.Inject[src].Push(th, p)
				th.Wait()
			}
		})
	}
	received := 0
	for dst := 0; dst < n; dst++ {
		dst := dst
		clk.Spawn(fmt.Sprintf("sink%d", dst), func(th *sim.Thread) {
			for {
				if _, ok := m.Eject[dst].PopNB(th); ok {
					if received++; received == total {
						th.Sim().Stop()
					}
				}
				th.Wait()
			}
		})
	}
	s.Run(2_000_000_000)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("received %d/%d packets", received, total)
	}

	r := ratecheck.Check(s)
	if len(r.Diags) != 0 {
		t.Fatalf("mesh fails ratecheck: %+v", r.Diags)
	}
	vs, checked := rateViolations(s, r)
	if len(vs) > 0 {
		t.Errorf("bounds violated:\n%s", strings.Join(vs, "\n"))
	}
	// Every VC link, local link, and endpoint channel carries counters.
	if checked < 50 {
		t.Fatalf("checked only %d channels of a 3x3 mesh", checked)
	}
}

func TestCrossCheckGALSCrossing(t *testing.T) {
	s := sim.New()
	tx := s.AddClock("tx", 1000, 0)
	rx := s.AddClock("rx", 1007, 13)
	f := gals.NewPausibleBisyncFIFO[int](s, "pf", tx, rx, 4, 40)

	const n = 500
	tx.Spawn("producer", func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			f.Push(th, i)
			th.Wait()
		}
	})
	rx.Spawn("consumer", func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			if f.Pop(th) != i {
				panic("loss across domains")
			}
			th.Wait()
		}
		th.Sim().Stop()
	})
	s.Run(sim.Infinity - 1)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}

	r := ratecheck.Check(s)
	if len(r.Crossings) != 1 || r.EndToEnd == nil {
		t.Fatalf("crossings = %+v", r.Crossings)
	}
	vs, checked := rateViolations(s, r)
	if len(vs) > 0 {
		t.Errorf("bounds violated:\n%s", strings.Join(vs, "\n"))
	}
	if checked < 1 {
		t.Fatal("the synchronizer was not checked")
	}
}

type bridgeMsg struct{ v uint64 }

func (m bridgeMsg) PackBits() bitvec.Vec { return bitvec.FromUint64(m.v, 40) }

// TestCrossCheckSerdes is the sharpest differential test: the serdes
// chain declares real service rates (1 firing per 3 cycles), so the
// measured message throughput is compared against a bound tighter than
// the hardware limit — a wrong balance solver or a wrong bound
// derivation fails here, not just an accounting bug.
func TestCrossCheckSerdes(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	d := s.Design()
	ser := matchlib.NewSerializer[bridgeMsg](clk, "ser", 16)
	d.DeclareActor("ser", sim.ActorSDF, clk, sim.NewRat(1, 3))
	ser.In.Owned(clk, "ser", "in").Rated(1, 1)
	ser.Out.Owned(clk, "ser", "out").Rated(3, 1)
	des := matchlib.NewDeserializer(clk, "des", 40, func(b bitvec.Vec) bridgeMsg {
		return bridgeMsg{v: b.Uint64()}
	})
	d.DeclareActor("des", sim.ActorSDF, clk, sim.NewRat(1, 3))
	des.In.Owned(clk, "des", "in").Rated(3, 1)
	des.Out.Owned(clk, "des", "out").Rated(1, 1)

	srcOut := connections.NewOut[bridgeMsg]()
	connections.Buffer(clk, "src", 2, srcOut, ser.In)
	connections.Buffer(clk, "link", 3, ser.Out, des.In)
	sinkIn := connections.NewIn[bridgeMsg]()
	connections.Buffer(clk, "sink", 2, des.Out, sinkIn)

	const n = 200
	clk.Spawn("src", func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			srcOut.Push(th, bridgeMsg{v: uint64(i)})
			th.Wait()
		}
	})
	got := 0
	clk.Spawn("sink", func(th *sim.Thread) {
		for got < n {
			if v := sinkIn.Pop(th); v.v != uint64(got) {
				panic("reorder through serdes")
			}
			got++
			th.Wait()
		}
		th.Sim().Stop()
	})
	s.Run(sim.Infinity - 1)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("delivered %d/%d", got, n)
	}

	r := ratecheck.Check(s)
	if len(r.Diags) != 0 {
		t.Fatalf("serdes chain fails ratecheck: %+v", r.Diags)
	}
	// The declared bound must be tight: 1/3 tok/cycle on the message
	// channels, not the default 1.
	if b := r.ChannelBound("sink"); b.Num != 1 || b.Den != 3 {
		t.Fatalf("sink bound = %s, want 1/3", b)
	}
	vs, checked := rateViolations(s, r)
	if len(vs) > 0 {
		t.Errorf("bounds violated:\n%s", strings.Join(vs, "\n"))
	}
	if checked != 3 { // src, link, sink
		t.Fatalf("checked %d channels, want 3", checked)
	}
	// And the dynamic run must actually approach it, or the comparison
	// is vacuous: n messages need at least 3n cycles.
	if cycles := clk.Cycle(); cycles < 3*n {
		t.Fatalf("run finished in %d cycles, faster than the declared bound allows", cycles)
	}
}

// TestCrossCheckCatchesBrokenAnalysis is the negative control: feed the
// check a result claiming an absurdly tight bound and assert it reports
// the channel — proving the check compares for real.
func TestCrossCheckCatchesBrokenAnalysis(t *testing.T) {
	runStallHunt(context.TODO(), 0, 1, 200, nil, func(s *sim.Simulator) {
		broken := &ratecheck.Result{Channels: []ratecheck.ChannelReport{{
			Name: "m", Clock: "clk", Capacity: 2, MinDepth: 1,
			Bound: sim.NewRat(1, 1000),
		}}}
		vs, _ := rateViolations(s, broken)
		found := false
		for _, v := range vs {
			if strings.HasPrefix(v, "m: ") && strings.Contains(v, "transfers") {
				found = true
			}
		}
		if !found {
			t.Fatalf("check accepted an impossible 1/1000 bound: %q", vs)
		}
	})
}
