package noc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/connections"
	"repro/internal/sim"
)

func TestPacketFlitsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for iter := 0; iter < 200; iter++ {
		p := Packet{Src: r.Intn(16), Dst: r.Intn(16), ID: r.Uint64()}
		for k := 0; k < r.Intn(6); k++ {
			p.Payload = append(p.Payload, r.Uint64())
		}
		flits := p.Flits(r.Intn(2))
		if !flits[0].Head {
			t.Fatal("first flit not head")
		}
		if !flits[len(flits)-1].Tail {
			t.Fatal("last flit not tail")
		}
		if len(p.Payload) == 0 {
			if len(flits) != 1 {
				t.Fatal("empty packet should be one flit")
			}
			continue
		}
		for i, f := range flits[1 : len(flits)-1] {
			if f.Head || f.Tail {
				t.Fatalf("flit %d has head/tail flags", i+1)
			}
		}
		if len(flits) != len(p.Payload)+1 {
			t.Fatalf("%d flits for %d payload words", len(flits), len(p.Payload))
		}
		for i, w := range p.Payload {
			if flits[i+1].Data != w {
				t.Fatalf("payload word %d corrupted", i)
			}
		}
	}
}

// runMeshTraffic sends packets over a mesh and verifies complete,
// uncorrupted, per-(src,dst)-ordered delivery.
func runMeshTraffic(t *testing.T, w, h, pktsPerNode int, payloadMax int, seed int64, opts ...connections.Option) uint64 {
	t.Helper()
	_, done := meshTraffic(t, w, h, pktsPerNode, payloadMax, seed, 0, opts...)
	return done
}

// meshTraffic is runMeshTraffic with a sink that rests sinkGap edges
// after each packet it takes, so that a slow consumer backs the NIs'
// packet outputs and then the network up. It returns the mesh and the
// cycle of the last delivery.
func meshTraffic(t *testing.T, w, h, pktsPerNode int, payloadMax int, seed int64, sinkGap int, opts ...connections.Option) (*Mesh, uint64) {
	t.Helper()
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	m := BuildMesh(clk, "m", w, h, 2, 4, opts...)
	n := w * h

	type key struct{ src, dst int }
	want := map[key][]Packet{}
	r := rand.New(rand.NewSource(seed))
	var nextID uint64
	progs := make([][]Packet, n)
	total := 0
	for src := 0; src < n; src++ {
		for k := 0; k < pktsPerNode; k++ {
			dst := r.Intn(n)
			if dst == src {
				continue
			}
			p := Packet{Src: src, Dst: dst, ID: nextID}
			nextID++
			for j := 0; j <= r.Intn(payloadMax+1); j++ {
				p.Payload = append(p.Payload, r.Uint64())
			}
			progs[src] = append(progs[src], p)
			want[key{src, dst}] = append(want[key{src, dst}], p)
			total++
		}
	}
	for src := 0; src < n; src++ {
		src := src
		clk.Spawn(fmt.Sprintf("gen%d", src), func(th *sim.Thread) {
			for _, p := range progs[src] {
				m.Inject[src].Push(th, p)
				th.Wait()
			}
		})
	}
	received := 0
	got := map[key][]Packet{}
	var doneCycle uint64
	for dst := 0; dst < n; dst++ {
		dst := dst
		clk.Spawn(fmt.Sprintf("sink%d", dst), func(th *sim.Thread) {
			for {
				if p, ok := m.Eject[dst].PopNB(th); ok {
					got[key{p.Src, dst}] = append(got[key{p.Src, dst}], p)
					received++
					if received == total {
						doneCycle = th.Cycle()
						th.Sim().Stop()
					}
					th.WaitN(sinkGap)
				}
				th.Wait()
			}
		})
	}
	s.Run(sim.Time(2_000_000_000))
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("delivered %d/%d packets", received, total)
	}
	for k, ps := range want {
		g := got[k]
		if len(g) != len(ps) {
			t.Fatalf("flow %v: %d/%d packets", k, len(g), len(ps))
		}
		// Packets of a flow may arrive reordered across VCs, so match by
		// ID; payloads must be intact.
		byID := map[uint64]Packet{}
		for _, p := range g {
			byID[p.ID] = p
		}
		for _, p := range ps {
			q, ok := byID[p.ID]
			if !ok {
				t.Fatalf("flow %v: packet %d lost", k, p.ID)
			}
			if len(q.Payload) != len(p.Payload) {
				t.Fatalf("flow %v pkt %d: payload length %d vs %d", k, p.ID, len(q.Payload), len(p.Payload))
			}
			for i := range p.Payload {
				if q.Payload[i] != p.Payload[i] {
					t.Fatalf("flow %v pkt %d word %d corrupted", k, p.ID, i)
				}
			}
		}
	}
	return m, doneCycle
}

func TestMesh2x2Delivery(t *testing.T) {
	runMeshTraffic(t, 2, 2, 20, 4, 71)
}

func TestMesh4x4Delivery(t *testing.T) {
	runMeshTraffic(t, 4, 4, 10, 3, 72)
}

// TestMeshUnderStallInjection checks the paper's verification story:
// random stalls on every link must not break delivery, in any cost
// model. Under the signal-accurate model a stall can withhold a head
// flit the router has peeked while its PushNB charges a Wait. A slow
// sink blocks the NIs' packet pushes and, through the backed-up
// routers, their mid-packet flit pushes. The cycle of the last delivery,
// every NI's packet counters and its failed pushes are pinned, and so is
// every router's flits in, packets in and refused pushes: a router counts
// a stall per blocked step, so its Stalls pin the cadence of its steps.
func TestMeshUnderStallInjection(t *testing.T) {
	stall := connections.WithStall(0.25, 5)
	signal := connections.WithMode(connections.ModeSignalAccurate)
	cases := []struct {
		name             string
		pkts, payloadMax int
		sinkGap          int
		opts             []connections.Option
		done             uint64
		counts           string
		routers          string
	}{
		{"tlm", 10, 3, 0, []connections.Option{stall}, 80, "ni0 8/10 10/5 ni1 9/11 8/1 ni2 10/7 16/1 ni3 9/8 5/3 ",
			"r0 69/21/35 r1 63/20/19 r2 73/21/24 r3 59/19/19 "},
		{"signal", 10, 3, 0, []connections.Option{stall, signal}, 272, "ni0 8/10 74/3 ni1 9/11 73/3 ni2 10/7 155/3 ni3 9/8 57/0 ",
			"r0 69/21/28 r1 62/20/24 r2 73/21/35 r3 59/19/22 "},
		{"tlm-slow-sink", 30, 6, 30, []connections.Option{stall}, 811, "ni0 21/18 39/10 ni1 21/14 29/7 ni2 19/26 25/21 ni3 23/26 34/22 ",
			"r0 191/47/440 r1 175/43/385 r2 199/51/782 r3 199/51/576 "},
		{"signal-slow-sink", 30, 6, 30, []connections.Option{stall, signal}, 898, "ni0 21/18 487/3 ni1 21/14 371/13 ni2 19/26 515/99 ni3 23/26 430/316 ",
			"r0 191/47/112 r1 175/43/86 r2 199/51/121 r3 199/51/92 "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, done := meshTraffic(t, 2, 2, c.pkts, c.payloadMax, 73, c.sinkGap, c.opts...)
			// Each NI's injected/ejected packets, then its failed pushes
			// into the network and toward the sink.
			var counts string
			for i, ni := range m.NIs {
				var flitFails uint64
				for _, o := range ni.FlitOut {
					flitFails += o.Stats().PushFails
				}
				counts += fmt.Sprintf("ni%d %d/%d %d/%d ", i, ni.Injected, ni.Ejected, flitFails, ni.PktOut.Stats().PushFails)
			}
			if done != c.done || counts != c.counts {
				t.Errorf("done at cycle %d with %q, want %d with %q", done, counts, c.done, c.counts)
			}
			var routers string
			for i, r := range m.Routers {
				routers += fmt.Sprintf("r%d %d/%d/%d ", i, r.Stats.FlitsIn, r.Stats.PacketsIn, r.Stats.Stalls)
			}
			if routers != c.routers {
				t.Errorf("routers %q, want %q", routers, c.routers)
			}
		})
	}
}

// A router method whose snapshot holds a head its input no longer has
// stops the run with an error naming the router, port and VC, where a
// blocking Pop would spin inside the step and never return.
func TestLostHeadStopsTheRun(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	r := NewWHVCRouter(clk, "r", 2, 1, func(dst int) int { return 1 }, connections.ModeSimAccurate)
	terminatePort(clk, "t0", r.Out[0], r.In[0])
	terminatePort(clk, "t1", r.Out[1], r.In[1])
	// A later slot forges a stale snapshot: a head flit on in[1][0], whose
	// channel is empty, marked nowhere, and wakes the router for it.
	clk.Method("forger", func(th *sim.Thread) {
		if th.Cycle() == 3 {
			r.heads[1], r.outs[1] = Flit{Head: true, Dst: 1}, 1
			r.have |= 1 << 1
			r.inEvs[1].Notify()
		}
	})
	s.RunCycles(clk, 10)
	err := s.Err()
	if err == nil || !strings.Contains(err.Error(), "noc: router r lost the head of in[1][0]") {
		t.Fatalf("Err = %v, want the router's lost head named", err)
	}
	if clk.Cycle() != 4 {
		t.Fatalf("stopped at cycle %d, want 4", clk.Cycle())
	}
}

func TestMeshRTLCosimMode(t *testing.T) {
	fast := runMeshTraffic(t, 2, 2, 10, 3, 74)
	slow := runMeshTraffic(t, 2, 2, 10, 3, 74, connections.WithMode(connections.ModeRTLCosim))
	if slow <= fast {
		t.Fatalf("RTL-cosim finished in %d cycles <= sim-accurate %d; pipeline latency missing", slow, fast)
	}
}

// Wormhole property: within one VC on any link, packets never interleave.
func TestWormholeNoInterleaving(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	r := NewWHVCRouter(clk, "r", 3, 1, func(dst int) int { return 2 }, connections.ModeSimAccurate)

	// Two sources racing for output 2 on the same (single) VC.
	srcs := make([]*connections.Out[Flit], 2)
	for i := range srcs {
		srcs[i] = connections.NewOut[Flit]()
		connections.Buffer(clk, fmt.Sprintf("in%d", i), 2, srcs[i], r.In[i][0])
		i := i
		clk.Spawn(fmt.Sprintf("src%d", i), func(th *sim.Thread) {
			for k := 0; k < 10; k++ {
				p := Packet{Src: i, Dst: 9, ID: uint64(i*100 + k), Payload: []uint64{1, 2, 3}}
				for _, f := range p.Flits(0) {
					srcs[i].Push(th, f)
					th.Wait()
				}
			}
		})
	}
	terminatePort(clk, "t2", []*connections.Out[Flit]{connections.NewOut[Flit]()}, r.In[2])

	sink := connections.NewIn[Flit]()
	connections.Buffer(clk, "out", 2, r.Out[2][0], sink)
	terminatePort(clk, "t0o", r.Out[0], []*connections.In[Flit]{connections.NewIn[Flit]()})
	terminatePort(clk, "t1o", r.Out[1], []*connections.In[Flit]{connections.NewIn[Flit]()})

	var current uint64
	inPkt := false
	seen := 0
	clk.Spawn("sink", func(th *sim.Thread) {
		for {
			if f, ok := sink.PopNB(th); ok {
				if f.Head {
					if inPkt {
						t.Errorf("head of pkt %d arrived inside pkt %d", f.PktID, current)
					}
					current, inPkt = f.PktID, true
				} else if !inPkt || f.PktID != current {
					t.Errorf("flit of pkt %d interleaved into pkt %d", f.PktID, current)
				}
				if f.Tail {
					inPkt = false
					seen++
					if seen == 20 {
						th.Sim().Stop()
					}
				}
			}
			th.Wait()
		}
	})
	s.Run(100_000_000)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != 20 {
		t.Fatalf("saw %d/20 packets", seen)
	}
}

// The load-latency curve must have the canonical NoC shape: flat latency
// at low load, rising sharply past saturation, with throughput
// monotonically non-decreasing up to saturation.
func TestLoadLatencyCurveShape(t *testing.T) {
	pts, _ := LoadLatencyCampaign(4, 4, []float64{0.02, 0.10, 0.30, 0.60}, 3000, 2, 5, 1)
	for i, p := range pts {
		if p.Delivered == 0 {
			t.Fatalf("load %.2f delivered nothing", p.OfferedLoad)
		}
		if i > 0 && p.MeanLatency < pts[i-1].MeanLatency*0.9 {
			t.Errorf("latency dropped with load: %.1f @ %.2f after %.1f @ %.2f",
				p.MeanLatency, p.OfferedLoad, pts[i-1].MeanLatency, pts[i-1].OfferedLoad)
		}
	}
	lo, hi := pts[0], pts[len(pts)-1]
	if hi.MeanLatency < 2*lo.MeanLatency {
		t.Errorf("no congestion signature: %.1f cycles at %.2f load vs %.1f at %.2f",
			hi.MeanLatency, hi.OfferedLoad, lo.MeanLatency, lo.OfferedLoad)
	}
	if hi.Throughput < lo.Throughput {
		t.Errorf("throughput fell below low-load point: %.3f vs %.3f", hi.Throughput, lo.Throughput)
	}
}

// Ablation: store-and-forward latency grows with packet length faster
// than wormhole cut-through... SF must at minimum deliver correctly, on
// sim-accurate links (the router parks while idle) and on
// signal-accurate ones (it polls, as each attempt charges a handshake
// wait). Each row pins the cycle of the last delivery.
func TestSFRouterDelivery(t *testing.T) {
	cases := []struct {
		name string
		opts []connections.Option
		done uint64 // cycle of the last tail flit's delivery
	}{
		{"sim", nil, 31},
		{"signal", []connections.Option{connections.WithMode(connections.ModeSignalAccurate)}, 84},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New()
			clk := s.AddClock("clk", 1000, 0)
			// 2-router line: src NI -> r0 -> r1 -> sink NI, local ports 0.
			route0 := func(dst int) int {
				if dst == 0 {
					return 0
				}
				return 1
			}
			route1 := func(dst int) int {
				if dst == 1 {
					return 0
				}
				return 1
			}
			r0 := NewSFRouter(clk, "r0", 2, 2, route0)
			r1 := NewSFRouter(clk, "r1", 2, 2, route1)
			connections.Buffer(clk, "link", 2, r0.Out[1], r1.In[1], c.opts...)
			terminatePort(clk, "r1term", []*connections.Out[Flit]{r1.Out[1]}, []*connections.In[Flit]{r1.In[0]})
			terminatePort(clk, "r0term", []*connections.Out[Flit]{r0.Out[0]}, []*connections.In[Flit]{r0.In[1]})

			src := connections.NewOut[Flit]()
			connections.Buffer(clk, "src", 2, src, r0.In[0], c.opts...)
			sink := connections.NewIn[Flit]()
			connections.Buffer(clk, "sink", 2, r1.Out[0], sink, c.opts...)

			const pkts = 8
			clk.Spawn("gen", func(th *sim.Thread) {
				for k := 0; k < pkts; k++ {
					p := Packet{Src: 0, Dst: 1, ID: uint64(k), Payload: []uint64{uint64(k), uint64(k * 2)}}
					for _, f := range p.Flits(0) {
						src.Push(th, f)
						th.Wait()
					}
				}
			})
			got := 0
			var done uint64
			clk.Spawn("sink", func(th *sim.Thread) {
				for {
					if f, ok := sink.PopNB(th); ok && f.Tail {
						got++
						if got == pkts {
							done = clk.Cycle()
							th.Sim().Stop()
						}
					}
					th.Wait()
				}
			})
			s.Run(10_000_000)
			if got != pkts || done != c.done {
				t.Fatalf("SF delivered %d/%d by cycle %d, want all by cycle %d", got, pkts, done, c.done)
			}
		})
	}
}

// Store-and-forward pays per-hop serialization: compare single-packet
// latency across a 1×4 line of routers for a long packet.
func TestSFSlowerThanWormholeForLongPackets(t *testing.T) {
	latency := func(useSF bool) uint64 {
		s := sim.New()
		clk := s.AddClock("clk", 1000, 0)
		const hops = 4
		payload := make([]uint64, 12)
		var ins []*connections.In[Flit]   // forward input of each router
		var outs []*connections.Out[Flit] // forward output of each router
		var locs []*connections.Out[Flit] // local output of each router
		for i := 0; i < hops; i++ {
			i := i
			route := func(dst int) int {
				if dst == i {
					return 0
				}
				return 1
			}
			if useSF {
				r := NewSFRouter(clk, fmt.Sprintf("r%d", i), 2, 2, route)
				ins = append(ins, r.In[1])
				outs = append(outs, r.Out[1])
				locs = append(locs, r.Out[0])
				connections.Buffer(clk, fmt.Sprintf("loc%d", i), 1, connections.NewOut[Flit](), r.In[0])
			} else {
				r := NewWHVCRouter(clk, fmt.Sprintf("r%d", i), 2, 1, route, connections.ModeSimAccurate)
				ins = append(ins, r.In[1][0])
				outs = append(outs, r.Out[1][0])
				locs = append(locs, r.Out[0][0])
				connections.Buffer(clk, fmt.Sprintf("loc%d", i), 1, connections.NewOut[Flit](), r.In[0][0])
			}
		}
		for i := 0; i < hops; i++ {
			if i+1 < hops {
				connections.Buffer(clk, fmt.Sprintf("l%d", i), 2, outs[i], ins[i+1])
				connections.Buffer(clk, fmt.Sprintf("dl%d", i), 1, locs[i], connections.NewIn[Flit]())
			}
		}
		connections.Buffer(clk, "lastout", 1, outs[hops-1], connections.NewIn[Flit]())
		sink := connections.NewIn[Flit]()
		connections.Buffer(clk, "sink", 2, locs[hops-1], sink)
		clk.Spawn("sink", func(th *sim.Thread) {
			for {
				if f, ok := sink.PopNB(th); ok && f.Tail {
					th.Sim().Stop()
				}
				th.Wait()
			}
		})
		src := connections.NewOut[Flit]()
		connections.Buffer(clk, "src", 2, src, ins[0])
		clk.Spawn("gen", func(th *sim.Thread) {
			p := Packet{Src: 99, Dst: hops - 1, ID: 1, Payload: payload}
			for _, f := range p.Flits(0) {
				src.Push(th, f)
				th.Wait()
			}
		})
		s.Run(10_000_000)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		return clk.Cycle()
	}
	sf, wh := latency(true), latency(false)
	if sf <= wh {
		t.Fatalf("SF latency %d <= wormhole %d for a 12-word packet over 4 hops", sf, wh)
	}
}
