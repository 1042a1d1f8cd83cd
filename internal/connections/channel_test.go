package connections

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/sim"
)

func bitvecNew(w int) bitvec.Vec { return bitvec.New(w) }

// runProducerConsumer wires a producer pushing 0..n-1 and a consumer
// popping everything, returns received values and elapsed consumer cycles.
func runProducerConsumer(t *testing.T, kind Kind, depth, n int, opts ...Option) ([]int, uint64) {
	t.Helper()
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in := NewOut[int](), NewIn[int]()
	Bind(clk, "ch", kind, depth, out, in, opts...)

	clk.Spawn("producer", func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			out.Push(th, i)
			th.Wait()
		}
	})
	var got []int
	var doneCycle uint64
	clk.Spawn("consumer", func(th *sim.Thread) {
		for len(got) < n {
			v, ok := in.PopNB(th)
			if ok {
				got = append(got, v)
			}
			th.Wait()
		}
		doneCycle = th.Cycle()
		th.Sim().Stop()
	})
	s.Run(sim.Time(uint64(n)*1000*1000 + 1000000))
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return got, doneCycle
}

func checkSequence(t *testing.T, got []int, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d = %d: loss, duplication or reorder", i, v)
		}
	}
}

func TestAllKindsDeliverInOrder(t *testing.T) {
	for _, kind := range []Kind{KindCombinational, KindBypass, KindPipeline, KindBuffer} {
		t.Run(kind.String(), func(t *testing.T) {
			got, _ := runProducerConsumer(t, kind, 4, 100)
			checkSequence(t, got, 100)
		})
	}
}

func TestAllModesDeliverInOrder(t *testing.T) {
	for _, mode := range []Mode{ModeSimAccurate, ModeSignalAccurate, ModeRTLCosim} {
		t.Run(mode.String(), func(t *testing.T) {
			got, _ := runProducerConsumer(t, KindBuffer, 4, 50, WithMode(mode))
			checkSequence(t, got, 50)
		})
	}
}

// The paper's verification feature: random stall injection must perturb
// timing without breaking functional correctness (loss/dup/reorder).
func TestStallInjectionPreservesCorrectness(t *testing.T) {
	for _, kind := range []Kind{KindCombinational, KindBypass, KindPipeline, KindBuffer} {
		for seed := int64(0); seed < 5; seed++ {
			got, _ := runProducerConsumer(t, kind, 3, 60, WithStall(0.4, 0.4, seed))
			checkSequence(t, got, 60)
		}
	}
}

func TestStallInjectionSlowsTraffic(t *testing.T) {
	_, fast := runProducerConsumer(t, KindBuffer, 4, 200)
	_, slow := runProducerConsumer(t, KindBuffer, 4, 200, WithStall(0.5, 0.5, 7))
	if slow <= fast {
		t.Fatalf("stalled run finished in %d cycles, unstalled in %d — injection had no effect", slow, fast)
	}
}

func TestLatencyOptionDelaysDelivery(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in := NewOut[int](), NewIn[int]()
	Bind(clk, "ch", KindBuffer, 4, out, in, WithLatency(5))

	var pushCycle, popCycle uint64
	clk.Spawn("producer", func(th *sim.Thread) {
		out.Push(th, 42)
		pushCycle = th.Cycle()
	})
	clk.Spawn("consumer", func(th *sim.Thread) {
		v := in.Pop(th)
		if v != 42 {
			t.Errorf("got %d", v)
		}
		popCycle = th.Cycle()
		th.Sim().Stop()
	})
	s.Run(100_000)
	if popCycle < pushCycle+5 {
		t.Fatalf("delivered after %d cycles, want >= 5 (push@%d pop@%d)", popCycle-pushCycle, pushCycle, popCycle)
	}
}

// Signal-accurate mode must charge one cycle per port operation; a loop
// with k port ops per iteration serializes — the Figure 3 effect.
func TestSignalAccurateSerializesPortOps(t *testing.T) {
	measure := func(mode Mode, ports int) uint64 {
		s := sim.New()
		clk := s.AddClock("clk", 1000, 0)
		outs := make([]*Out[int], ports)
		ins := make([]*In[int], ports)
		for i := range outs {
			outs[i], ins[i] = NewOut[int](), NewIn[int]()
			Bind(clk, "ch", KindBuffer, 8, outs[i], ins[i], WithMode(mode))
		}
		const rounds = 20
		var cycles uint64
		clk.Spawn("worker", func(th *sim.Thread) {
			start := th.Cycle()
			for r := 0; r < rounds; r++ {
				for i := 0; i < ports; i++ {
					outs[i].PushNB(th, r)
				}
				th.Wait()
			}
			cycles = th.Cycle() - start
			th.Sim().Stop()
		})
		s.Run(sim.Infinity - 1)
		return cycles
	}
	simAcc := measure(ModeSimAccurate, 8)
	sigAcc := measure(ModeSignalAccurate, 8)
	if simAcc >= 25 { // ~20 rounds, 1 cycle each
		t.Fatalf("sim-accurate loop took %d cycles, want ~20", simAcc)
	}
	if sigAcc < 8*20 {
		t.Fatalf("signal-accurate loop took %d cycles, want >= %d (serialized)", sigAcc, 8*20)
	}
}

func TestBypassSameCycleDelivery(t *testing.T) {
	// With Bypass, a push staged by an earlier-registered thread must be
	// poppable by a later-registered thread in the same cycle.
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in := NewOut[int](), NewIn[int]()
	Bypass(clk, "ch", out, in)
	var pushC, popC uint64
	clk.Spawn("producer", func(th *sim.Thread) {
		out.Push(th, 9)
		pushC = th.Cycle()
	})
	clk.Spawn("consumer", func(th *sim.Thread) {
		v := in.Pop(th)
		if v != 9 {
			t.Errorf("got %d", v)
		}
		popC = th.Cycle()
		th.Sim().Stop()
	})
	s.Run(100_000)
	if popC != pushC {
		t.Fatalf("bypass delivered at cycle %d, pushed at %d — want same cycle", popC, pushC)
	}
}

func TestBufferBackpressure(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in := NewOut[int](), NewIn[int]()
	Buffer(clk, "ch", 2, out, in)
	pushed := 0
	clk.Spawn("producer", func(th *sim.Thread) {
		for i := 0; i < 10; i++ {
			if out.PushNB(th, i) {
				pushed++
			}
			th.Wait()
		}
	})
	s.RunCycles(clk, 20)
	// Depth-2 committed storage plus the one-entry producer skid of the
	// sim-accurate model.
	if pushed != 3 {
		t.Fatalf("pushed %d into depth-2 buffer with no consumer, want 3", pushed)
	}
	if !out.Full() {
		t.Fatal("Full() = false on a full channel")
	}
}

// Regression for the latency-capacity bug: a latency-L channel must not
// gain L slots of effective buffering. With no consumer, a latency-2
// Buffer must accept exactly as many pushes as a latency-0 one of the
// same depth, and committed occupancy must never exceed the declared
// capacity.
func TestLatencyDoesNotAddCapacity(t *testing.T) {
	fill := func(latency int) (pushed int, maxOcc int) {
		s := sim.New()
		clk := s.AddClock("clk", 1000, 0)
		out, in := NewOut[int](), NewIn[int]()
		ch := Buffer(clk, "ch", 2, out, in, WithLatency(latency))
		clk.Spawn("producer", func(th *sim.Thread) {
			for i := 0; i < 12; i++ {
				if out.PushNB(th, i) {
					pushed++
				}
				th.Wait()
			}
		})
		clk.AtMonitorNamed("occupancy", func() {
			if occ := ch.Occupancy(); occ > maxOcc {
				maxOcc = occ
			}
		})
		s.RunCycles(clk, 20)
		return pushed, maxOcc
	}
	p0, occ0 := fill(0)
	p2, occ2 := fill(2)
	if p2 != p0 {
		t.Fatalf("latency-2 buffer accepted %d pushes, latency-0 accepted %d — delay line added capacity", p2, p0)
	}
	if occ2 != occ0 || occ2 > 2 {
		t.Fatalf("latency-2 max occupancy %d vs latency-0 %d (cap 2) — delay line added buffering", occ2, occ0)
	}

	// Backpressure holds too: under saturating traffic the latency-2
	// channel must reject at least as many pushes as the latency-0 one
	// (the bug's extra slots made it strictly less backpressured).
	f0, f2 := fillStats(t, 0), fillStats(t, 2)
	if f2.PushFails < f0.PushFails {
		t.Fatalf("latency-2 push fails %d < latency-0 push fails %d — delay line relaxed backpressure", f2.PushFails, f0.PushFails)
	}
}

// fillStats saturates a depth-2 buffer with an always-pushing producer
// and a consumer that pops every other cycle, returning the channel's
// counters after a fixed window.
func fillStats(t *testing.T, latency int) Stats {
	t.Helper()
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in := NewOut[int](), NewIn[int]()
	ch := Buffer(clk, "ch", 2, out, in, WithLatency(latency))
	clk.Spawn("producer", func(th *sim.Thread) {
		for i := 0; ; i++ {
			out.PushNB(th, i)
			th.Wait()
		}
	})
	clk.Spawn("consumer", func(th *sim.Thread) {
		for {
			in.PopNB(th)
			th.WaitN(2)
		}
	})
	s.RunCycles(clk, 60)
	return ch.Stats()
}

func TestPipelineEnqueueWhenFull(t *testing.T) {
	// A 1-deep Pipeline channel must sustain one transfer per cycle when
	// producer and consumer both operate every cycle.
	got, cycles := runProducerConsumer(t, KindPipeline, 1, 50)
	checkSequence(t, got, 50)
	if cycles > 60 {
		t.Fatalf("pipeline channel took %d cycles for 50 transfers, want ~50 (full throughput)", cycles)
	}
}

func TestBypassLowerLatencyThanBuffer(t *testing.T) {
	// Bypass delivers in the same cycle (combinational valid path);
	// Buffer delivers one cycle later at the earliest.
	latency := func(kind Kind) uint64 {
		s := sim.New()
		clk := s.AddClock("clk", 1000, 0)
		out, in := NewOut[int](), NewIn[int]()
		Bind(clk, "ch", kind, 1, out, in)
		var pushC, popC uint64
		clk.Spawn("p", func(th *sim.Thread) {
			out.Push(th, 1)
			pushC = th.Cycle()
		})
		clk.Spawn("c", func(th *sim.Thread) {
			in.Pop(th)
			popC = th.Cycle()
			th.Sim().Stop()
		})
		s.Run(1_000_000)
		return popC - pushC
	}
	if l := latency(KindBypass); l != 0 {
		t.Errorf("Bypass latency = %d cycles, want 0", l)
	}
	if l := latency(KindBuffer); l < 1 {
		t.Errorf("Buffer latency = %d cycles, want >= 1", l)
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in := NewOut[int](), NewIn[int]()
	Buffer(clk, "ch", 4, out, in)
	clk.Spawn("t", func(th *sim.Thread) {
		out.Push(th, 7)
		th.Wait()
		if v, ok := in.Peek(); !ok || v != 7 {
			t.Errorf("Peek = %d,%v", v, ok)
		}
		if v, ok := in.Peek(); !ok || v != 7 {
			t.Errorf("second Peek = %d,%v", v, ok)
		}
		if v, ok := in.PopNB(th); !ok || v != 7 {
			t.Errorf("PopNB after Peek = %d,%v", v, ok)
		}
		th.Sim().Stop()
	})
	s.Run(100_000)
}

func TestUnboundPortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on unbound port did not panic")
		}
	}()
	NewIn[int]().PopNB(nil)
}

func TestDoubleBindPanics(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in := NewOut[int](), NewIn[int]()
	Buffer(clk, "a", 1, out, in)
	defer func() {
		if recover() == nil {
			t.Fatal("double bind did not panic")
		}
	}()
	Buffer(clk, "b", 1, out, NewIn[int]())
}

func TestStats(t *testing.T) {
	got, _ := runProducerConsumer(t, KindBuffer, 4, 30)
	checkSequence(t, got, 30)
	// Stats checked via a fresh run with a handle.
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in, ch := Connect[int](clk, "ch", KindBuffer, 4)
	clk.Spawn("p", func(th *sim.Thread) {
		for i := 0; i < 10; i++ {
			out.Push(th, i)
			th.Wait()
		}
	})
	clk.Spawn("c", func(th *sim.Thread) {
		for i := 0; i < 10; i++ {
			in.Pop(th)
			th.Wait()
		}
		th.Sim().Stop()
	})
	s.Run(sim.Infinity - 1)
	if ch.Stats().Transfers != 10 {
		t.Fatalf("Transfers = %d, want 10", ch.Stats().Transfers)
	}
	if ch.Stats().PushAttempts < 10 || ch.Stats().PopAttempts < 10 {
		t.Fatalf("attempt counters too small: %+v", ch.Stats())
	}
}

func TestAccessorsAndHelpers(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in := NewOut[int](), NewIn[int]()
	if out.Bound() || in.Bound() {
		t.Fatal("fresh ports report bound")
	}
	ch := Pipeline(clk, "p", out, in)
	if !out.Bound() || !in.Bound() {
		t.Fatal("bound ports report unbound")
	}
	if ch.Name() != "p" || ch.Kind() != KindPipeline || ch.Mode() != ModeSimAccurate {
		t.Fatalf("handle accessors: %s %v %v", ch.Name(), ch.Kind(), ch.Mode())
	}
	out2, in2 := NewOut[int](), NewIn[int]()
	ch2 := Combinational(clk, "c", out2, in2)
	if ch2.Kind() != KindCombinational {
		t.Fatal("Combinational helper kind")
	}
	clk.Spawn("t", func(th *sim.Thread) {
		if !in.Empty() {
			t.Error("empty channel reports data")
		}
		out.Push(th, 1)
		th.Wait()
		if in.Empty() {
			t.Error("non-empty channel reports empty")
		}
		if in.Stats().Transfers != 0 || out.Stats().PushAttempts == 0 {
			t.Errorf("port stats: %+v", out.Stats())
		}
		if ch.Occupancy() != 1 {
			t.Errorf("occupancy = %d", ch.Occupancy())
		}
		th.Sim().Stop()
	})
	s.Run(sim.Infinity - 1)
	if ch.Stats().MeanOccupancy() < 0 {
		t.Fatal("mean occupancy negative")
	}
}

func TestRTLTogglesAccumulate(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in, ch := Connect[word](clk, "ch", KindBuffer, 2, WithMode(ModeRTLCosim))
	clk.Spawn("p", func(th *sim.Thread) {
		for i := 0; i < 20; i++ {
			out.Push(th, word{v: uint64(i) * 0x1234567})
			th.Wait()
		}
	})
	clk.Spawn("c", func(th *sim.Thread) {
		for i := 0; i < 20; i++ {
			in.Pop(th)
			th.Wait()
		}
		th.Sim().Stop()
	})
	s.Run(sim.Infinity - 1)
	if ch.RTLToggles() == 0 {
		t.Fatal("no RTL wire toggles recorded")
	}
}

func TestWithPackableExplicit(t *testing.T) {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in, _ := Connect[word](clk, "ch", KindBuffer, 2,
		WithMode(ModeRTLCosim), WithPackable[word]())
	clk.Spawn("t", func(th *sim.Thread) {
		out.Push(th, word{v: 5})
		th.WaitN(2) // RTL mode inserts one pipeline-register stage
		if v, ok := in.PopNB(th); !ok || v.v != 5 {
			t.Errorf("got %v %v", v, ok)
		}
		th.Sim().Stop()
	})
	s.Run(sim.Infinity - 1)
}

func TestSplitFlitsZeroWidthMessage(t *testing.T) {
	flits := SplitFlits(bitvecNew(0), 16)
	if len(flits) != 1 || !flits[0].Last {
		t.Fatalf("zero-width message flits: %v", flits)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive flit width")
		}
	}()
	SplitFlits(bitvecNew(8), 0)
}

// Property: random interleavings of blocking/non-blocking producers and
// consumers across kinds, modes, depths and stall rates never lose,
// duplicate, or reorder data.
func TestRandomizedTrafficProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	kinds := []Kind{KindCombinational, KindBypass, KindPipeline, KindBuffer}
	modes := []Mode{ModeSimAccurate, ModeSignalAccurate, ModeRTLCosim}
	for iter := 0; iter < 30; iter++ {
		kind := kinds[r.Intn(len(kinds))]
		mode := modes[r.Intn(len(modes))]
		depth := 1 + r.Intn(6)
		n := 20 + r.Intn(60)
		stall := r.Float64() * 0.5
		seed := r.Int63()
		got, _ := runProducerConsumer(t, kind, depth, n,
			WithMode(mode), WithStall(stall, stall, seed), WithLatency(r.Intn(3)))
		if len(got) != n {
			t.Fatalf("iter %d (%v/%v depth=%d stall=%.2f): got %d/%d", iter, kind, mode, depth, stall, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("iter %d: position %d = %d", iter, i, v)
			}
		}
	}
}
