package matchlib

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/connections"
	"repro/internal/lint"
	"repro/internal/sim"
)

// buildXbarTB wires an n×n arbitrated crossbar with saturated random
// sources and always-popping sinks, returning the received values per
// output and elapsed cycles once each source sent msgsPerPort messages.
func buildXbarTB(t *testing.T, n, msgsPerPort int, mode connections.Mode, seed int64) ([][]int, uint64) {
	t.Helper()
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	x := NewArbitratedCrossbar[int](clk, "x", n, 2)

	for i := 0; i < n; i++ {
		srcOut := connections.NewOut[XbarMsg[int]]()
		connections.Buffer(clk, "in", 2, srcOut, x.In[i], connections.WithMode(mode))
		i := i
		r := rand.New(rand.NewSource(seed + int64(i)))
		clk.Spawn("src", func(th *sim.Thread) {
			for k := 0; k < msgsPerPort; k++ {
				srcOut.Push(th, XbarMsg[int]{Dst: r.Intn(n), Data: i*1_000_000 + k})
				th.Wait()
			}
		})
	}
	got := make([][]int, n)
	done := 0
	var doneCycle uint64
	for j := 0; j < n; j++ {
		sinkIn := connections.NewIn[int]()
		connections.Buffer(clk, "out", 2, x.Out[j], sinkIn, connections.WithMode(mode))
		j := j
		clk.Spawn("sink", func(th *sim.Thread) {
			for {
				if v, ok := sinkIn.PopNB(th); ok {
					got[j] = append(got[j], v)
					done++
					if done == n*msgsPerPort {
						doneCycle = th.Cycle()
						th.Sim().Stop()
					}
				}
				th.Wait()
			}
		})
	}
	s.Run(sim.Infinity - 1)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if done != n*msgsPerPort {
		t.Fatalf("delivered %d/%d messages", done, n*msgsPerPort)
	}
	return got, doneCycle
}

func TestArbitratedCrossbarDeliversAll(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		got, _ := buildXbarTB(t, n, 40, connections.ModeSimAccurate, 7)
		// Per-source in-order delivery: for each output, the sequence of
		// messages from any single source must be increasing.
		last := map[int]int{}
		for j := range got {
			for k, v := range got[j] {
				src := v / 1_000_000
				if prev, ok := last[src*100+j]; ok && v <= prev {
					t.Fatalf("n=%d out %d pos %d: %d after %d from src %d", n, j, k, v, prev, src)
				}
				last[src*100+j] = v
			}
		}
	}
}

func TestSignalAccurateCrossbarSlower(t *testing.T) {
	// The Figure 3 effect: signal-accurate simulation of the same model
	// takes far more cycles per transaction, growing with port count.
	_, simAcc := buildXbarTB(t, 8, 30, connections.ModeSimAccurate, 9)
	_, sigAcc := buildXbarTB(t, 8, 30, connections.ModeSignalAccurate, 9)
	if sigAcc < simAcc*4 {
		t.Fatalf("signal-accurate %d cycles vs sim-accurate %d — expected >=4x", sigAcc, simAcc)
	}
}

func TestStructuralCrossbarMatchesSimAccurateThroughput(t *testing.T) {
	// Saturated uniform-random traffic: cycles/transaction of the TLM
	// model under sim-accurate channels must track the RTL model within
	// a few percent (the paper's headline modelling claim).
	const n, msgs = 8, 300
	_, tlmCycles := buildXbarTB(t, n, msgs, connections.ModeSimAccurate, 11)

	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	r := rand.New(rand.NewSource(11))
	sent := make([]int, n)
	var rtl *StructuralCrossbar[int]
	rtl = NewStructuralCrossbar(clk, "rtl", n, 2,
		func(i int) (XbarMsg[int], bool) {
			if sent[i] >= msgs {
				return XbarMsg[int]{}, false
			}
			sent[i]++
			return XbarMsg[int]{Dst: r.Intn(n), Data: 0}, true
		},
		func(j int, v int) bool { return true })
	for rtl.TotalAccepted() < n*msgs {
		s.RunCycles(clk, 1)
	}
	rtlCycles := clk.Cycle()

	ratio := float64(tlmCycles) / float64(rtlCycles)
	if ratio < 0.80 || ratio > 1.35 {
		t.Fatalf("TLM %d cycles vs RTL %d cycles (ratio %.2f) — sim-accurate model should match RTL throughput", tlmCycles, rtlCycles, ratio)
	}
}

func TestStructuralCrossbarBackpressure(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	accept := false
	x := NewStructuralCrossbar(clk, "x", 2, 2,
		func(i int) (XbarMsg[int], bool) { return XbarMsg[int]{Dst: 0, Data: i}, true },
		func(j int, v int) bool { return accept })
	s.RunCycles(clk, 20)
	if x.TotalAccepted() != 0 {
		t.Fatal("accepted despite sink back-pressure")
	}
	accept = true
	s.RunCycles(clk, 20)
	if x.TotalAccepted() == 0 {
		t.Fatal("nothing accepted after releasing back-pressure")
	}
}

// TestFig3Shape checks the paper's Figure 3 relationships across port
// counts: the sim-accurate model tracks the RTL model closely at every
// size, while the signal-accurate model's cost grows with port count.
func TestFig3Shape(t *testing.T) {
	rows, _ := RunFig3Campaign([]int{2, 4, 8, 16}, 150, 5, 1)
	for i, r := range rows {
		ratio := r.SimAcc / r.RTL
		if ratio < 0.80 || ratio > 1.20 {
			t.Errorf("ports=%d: sim-accurate/RTL ratio %.2f outside ±20%%", r.Ports, ratio)
		}
		if r.SigAcc < 2*r.RTL {
			t.Errorf("ports=%d: signal-accurate %.2f not clearly above RTL %.2f", r.Ports, r.SigAcc, r.RTL)
		}
		if i > 0 && r.SigAcc <= rows[i-1].SigAcc {
			t.Errorf("signal-accurate error not growing: %.2f at %d ports after %.2f at %d",
				r.SigAcc, r.Ports, rows[i-1].SigAcc, rows[i-1].Ports)
		}
		if i > 0 {
			// The RTL series stays nearly flat: well below linear growth.
			if r.RTL > rows[0].RTL*2 {
				t.Errorf("RTL series not flat: %.2f at %d ports vs %.2f at %d", r.RTL, r.Ports, rows[0].RTL, rows[0].Ports)
			}
		}
	}
}

// TestFig3HarnessNamesUnique: the Figure 3 TLM harness names every
// channel by its port index, so its design graph has no CON-4 name
// collisions.
func TestFig3HarnessNamesUnique(t *testing.T) {
	for _, mode := range []connections.Mode{connections.ModeSimAccurate, connections.ModeSignalAccurate} {
		s, _ := xbarTLMHarness(4, 1, mode, 1)
		for _, d := range lint.Check(s).Diags {
			if d.Rule == "CON-4" {
				t.Errorf("%v: %s: %s", mode, d.Path, d.Message)
			}
		}
		s.Close()
	}
}

// --- Scratchpads ---

func TestScratchpadConflictFreeParallelism(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	const lanes = 4
	sp := NewScratchpad[uint64](clk, "sp", lanes, 64)
	reqOut := make([]*connections.Out[SPReq[uint64]], lanes)
	rspIn := make([]*connections.In[SPResp[uint64]], lanes)
	for i := 0; i < lanes; i++ {
		reqOut[i] = connections.NewOut[SPReq[uint64]]()
		rspIn[i] = connections.NewIn[SPResp[uint64]]()
		connections.Buffer(clk, "req", 2, reqOut[i], sp.Req[i])
		connections.Buffer(clk, "rsp", 2, sp.Rsp[i], rspIn[i])
	}
	gotData := make([]uint64, lanes)
	doneN := 0
	for i := 0; i < lanes; i++ {
		i := i
		clk.Spawn("lane", func(th *sim.Thread) {
			// Each lane touches its own bank: addr ≡ lane (mod lanes).
			addr := i + lanes*i
			reqOut[i].Push(th, SPReq[uint64]{Write: true, Addr: addr, Data: uint64(100 + i)})
			th.Wait()
			reqOut[i].Push(th, SPReq[uint64]{Addr: addr})
			rsp := rspIn[i].Pop(th)
			gotData[i] = rsp.Data
			doneN++
			if doneN == lanes {
				th.Sim().Stop()
			}
			th.Wait()
		})
	}
	s.Run(sim.Infinity - 1)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range gotData {
		if gotData[i] != uint64(100+i) {
			t.Fatalf("lane %d read %d, want %d", i, gotData[i], 100+i)
		}
	}
	if sp.Conflicts != 0 {
		t.Fatalf("conflicts = %d on conflict-free pattern", sp.Conflicts)
	}
}

func TestArbitratedScratchpadConflictSerialization(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	const lanes = 4
	sp := NewArbitratedScratchpad[uint64](clk, "asp", lanes, lanes, 64, 2)
	reqOut := make([]*connections.Out[SPReq[uint64]], lanes)
	rspIn := make([]*connections.In[SPResp[uint64]], lanes)
	for i := 0; i < lanes; i++ {
		reqOut[i] = connections.NewOut[SPReq[uint64]]()
		rspIn[i] = connections.NewIn[SPResp[uint64]]()
		connections.Buffer(clk, "req", 2, reqOut[i], sp.Req[i])
		connections.Buffer(clk, "rsp", 2, sp.Rsp[i], rspIn[i])
	}
	// Preload bank 0 addresses 0,4,8,12 with known values.
	for k := 0; k < lanes; k++ {
		sp.Mem.Write(k*lanes, uint64(500+k))
	}
	got := make([]uint64, lanes)
	doneN := 0
	for i := 0; i < lanes; i++ {
		i := i
		clk.Spawn("lane", func(th *sim.Thread) {
			// All lanes hit bank 0 simultaneously.
			reqOut[i].Push(th, SPReq[uint64]{Addr: i * lanes})
			rsp := rspIn[i].Pop(th)
			got[i] = rsp.Data
			doneN++
			if doneN == lanes {
				th.Sim().Stop()
			}
			th.Wait()
		})
	}
	s.Run(sim.Infinity - 1)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != uint64(500+i) {
			t.Fatalf("lane %d got %d, want %d", i, got[i], 500+i)
		}
	}
	if sp.Conflicts == 0 {
		t.Fatal("expected bank conflicts on all-lanes-to-bank-0 pattern")
	}
}

// Property: the arbitrated scratchpad serves random traffic with
// per-lane in-order responses that match a flat memory model.
func TestArbitratedScratchpadRandomProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for iter := 0; iter < 5; iter++ {
		s := sim.New()
		clk := s.AddClock("clk", 1000, 0)
		lanes := 2 + r.Intn(3)
		banks := []int{1, 2, 4}[r.Intn(3)]
		size := 32 * banks
		sp := NewArbitratedScratchpad[uint64](clk, "asp", lanes, banks, size, 2)
		model := make([]uint64, size)

		type expRead struct {
			addr int
			want uint64
		}
		// Build a random program per lane; model semantics sequentially
		// per-lane. Writes from different lanes to the same address are
		// avoided to keep the model deterministic.
		progs := make([][]SPReq[uint64], lanes)
		expect := make([][]expRead, lanes)
		for l := 0; l < lanes; l++ {
			for k := 0; k < 40; k++ {
				addr := (r.Intn(size/lanes))*lanes + l // lane-private region
				if r.Intn(2) == 0 {
					v := r.Uint64()
					progs[l] = append(progs[l], SPReq[uint64]{Write: true, Addr: addr, Data: v})
					model[addr] = v
				} else {
					progs[l] = append(progs[l], SPReq[uint64]{Addr: addr})
					expect[l] = append(expect[l], expRead{addr, model[addr]})
				}
			}
		}
		done := 0
		for l := 0; l < lanes; l++ {
			l := l
			reqOut := connections.NewOut[SPReq[uint64]]()
			rspIn := connections.NewIn[SPResp[uint64]]()
			connections.Buffer(clk, "req", 2, reqOut, sp.Req[l])
			connections.Buffer(clk, "rsp", 2, sp.Rsp[l], rspIn)
			clk.Spawn("lane", func(th *sim.Thread) {
				ri := 0
				for _, req := range progs[l] {
					reqOut.Push(th, req)
					if !req.Write {
						rsp := rspIn.Pop(th)
						e := expect[l][ri]
						if rsp.Addr != e.addr || rsp.Data != e.want {
							t.Errorf("lane %d read %d: got (%d,%d) want (%d,%d)", l, ri, rsp.Addr, rsp.Data, e.addr, e.want)
						}
						ri++
					}
					th.Wait()
				}
				done++
				if done == lanes {
					th.Sim().Stop()
				}
				th.Wait()
			})
		}
		s.Run(sim.Infinity - 1)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if done != lanes {
			t.Fatalf("only %d/%d lanes completed", done, lanes)
		}
	}
}

// --- Serializer / Deserializer ---

type serMsg struct{ v uint64 }

func (m serMsg) PackBits() bitvec.Vec { return bitvec.FromUint64(m.v, 40) }

func TestSerializerDeserializerRoundTrip(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	ser := NewSerializer[serMsg](clk, "ser", 16)
	des := NewDeserializer(clk, "des", 40, func(b bitvec.Vec) serMsg { return serMsg{v: b.Uint64()} })

	srcOut := connections.NewOut[serMsg]()
	connections.Buffer(clk, "src", 2, srcOut, ser.In)
	connections.Buffer(clk, "link", 2, ser.Out, des.In)
	sinkIn := connections.NewIn[serMsg]()
	connections.Buffer(clk, "sink", 2, des.Out, sinkIn)

	const n = 25
	clk.Spawn("src", func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			srcOut.Push(th, serMsg{v: uint64(i) * 0x123456})
			th.Wait()
		}
	})
	var got []serMsg
	clk.Spawn("sink", func(th *sim.Thread) {
		for len(got) < n {
			got = append(got, sinkIn.Pop(th))
			th.Wait()
		}
		th.Sim().Stop()
	})
	s.Run(sim.Infinity - 1)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	for i, m := range got {
		if want := uint64(i) * 0x123456 & ((1 << 40) - 1); m.v != want {
			t.Fatalf("msg %d = %#x, want %#x", i, m.v, want)
		}
	}
}
