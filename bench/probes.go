package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/connections"
	"repro/internal/core"
	"repro/internal/fleet/wire"
	"repro/internal/gals"
	"repro/internal/hls"
	"repro/internal/lint"
	"repro/internal/mc"
	"repro/internal/noc"
	"repro/internal/ratecheck"
	"repro/internal/rtl"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/stats"
	"repro/internal/synth"
)

// probes times single layers in isolation, each as the median of a few
// repetitions, and adds the results to vals. They run after a traced
// run's sessions, in the benchmark process.
func probes(vals map[string]float64, tiny bool) error {
	reps, scale := 5, 1
	if tiny {
		reps, scale = 1, 10
	}
	med := func(f func() float64) float64 {
		xs := make([]float64, reps)
		for i := range xs {
			xs[i] = f()
		}
		return median(xs)
	}

	vals["connections.ns_per_transfer"] = med(func() float64 { return channelProbe(20000 / scale) })
	vals["noc.ns_per_flit"] = med(meshProbe)
	vals["gals.ns_per_crossing"] = med(func() float64 { return crossingProbe(20000 / scale) })

	var rtlErr error
	var hlsMs, synthMs, compileMs, cellNs []float64
	for i := 0; i < reps; i++ {
		h, s, c, n, err := rtlProbe(scale)
		if err != nil {
			rtlErr = err
		}
		hlsMs, synthMs, compileMs, cellNs = append(hlsMs, h), append(synthMs, s), append(compileMs, c), append(cellNs, n)
	}
	if rtlErr != nil {
		return rtlErr
	}
	vals["hls.pipeline_ms"] = median(hlsMs)
	vals["synth.map_optimize_ms"] = median(synthMs)
	vals["rtl.compile_ms"] = median(compileMs)
	vals["rtl.ns_per_cell_cycle"] = median(cellNs)

	var qorErr error
	vals["core.qor_table_ms"] = med(func() float64 {
		t := time.Now()
		if _, err := core.QoRTable(core.DefaultFlow()); err != nil {
			qorErr = err
		}
		return ms(time.Since(t))
	})
	if qorErr != nil {
		return qorErr
	}

	// The static passes run on the memcpy chip. mc exhausts its state
	// budget there (an honest "inconclusive"), which makes it the slowest
	// probe, so it runs once.
	// lint and ratecheck take tens of microseconds, so each sample times
	// a hundred checks.
	s, _ := soc.Tests()[0].Build(soc.DefaultConfig())
	const checks = 100
	vals["lint.check_ms"] = med(func() float64 {
		t := time.Now()
		for i := 0; i < checks; i++ {
			lint.Check(s.Sim)
		}
		return ms(time.Since(t)) / checks
	})
	vals["ratecheck.check_ms"] = med(func() float64 {
		t := time.Now()
		for i := 0; i < checks; i++ {
			ratecheck.Check(s.Sim)
		}
		return ms(time.Since(t)) / checks
	})
	opt := mc.Options{}
	if tiny {
		opt.Depth, opt.MaxStates, opt.MaxSteps = 1, 256, 2048
	}
	t := time.Now()
	mc.Check(s.Sim, opt)
	vals["mc.check_ms"] = ms(time.Since(t))

	spec := []byte(`{"kind":"sim","test":"kmeans","gals":true,"stall":0.05,"seed":12345}`)
	var specErr error
	vals["serve.spec_hash_us"] = med(func() float64 {
		const n = 2000
		t := time.Now()
		for i := 0; i < n; i++ {
			sp, err := serve.ParseSpec(spec)
			if err == nil {
				err = sp.Normalize()
			}
			if err != nil {
				specErr = err
			}
			sp.Hash()
		}
		return float64(time.Since(t).Nanoseconds()) / n / 1e3
	})
	if specErr != nil {
		return specErr
	}
	vals["serve.cache_get_ns"] = med(cacheProbe)

	body, err := executeLocal(warmUpSpec)
	if err != nil {
		return fmt.Errorf("wire probe body: %w", err)
	}
	enc, dec, err := wireProbe(body, 20000/scale, reps)
	if err != nil {
		return err
	}
	vals["fleet.wire_encode_ns"], vals["fleet.wire_decode_ns"] = enc, dec
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// channelProbe is BenchmarkTable1ChannelBuffer's loop: a producer and a
// polling consumer on a depth-4 Buffer channel. It returns ns per
// transfer.
func channelProbe(cycles int) float64 {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	out, in := connections.NewOut[int](), connections.NewIn[int]()
	connections.Bind(clk, "ch", connections.KindBuffer, 4, out, in)
	clk.Spawn("p", func(th *sim.Thread) {
		for i := 0; ; i++ {
			out.Push(th, i)
			th.Wait()
		}
	})
	got := 0
	clk.Spawn("c", func(th *sim.Thread) {
		for {
			if _, ok := in.PopNB(th); ok {
				got++
			}
			th.Wait()
		}
	})
	t := time.Now()
	s.RunCycles(clk, uint64(cycles))
	return ratio(float64(time.Since(t).Nanoseconds()), float64(got))
}

// meshProbe is BenchmarkNoCMeshClean's traffic: every node of a 4×4
// wormhole mesh sends eight two-word packets. It returns ns per flit
// entering a router.
func meshProbe() float64 {
	s := sim.New()
	clk := s.AddClock("clk", 1000, 0)
	m := noc.BuildMesh(clk, "m", 4, 4, 2, 4)
	const pkts = 8
	total, got := 16*pkts, 0
	for src := 0; src < 16; src++ {
		src := src
		clk.Spawn("g", func(th *sim.Thread) {
			for k := 0; k < pkts; k++ {
				dst := (src + 5 + k) % 16
				if dst == src {
					dst = (dst + 1) % 16
				}
				m.Inject[src].Push(th, noc.Packet{Src: src, Dst: dst, ID: uint64(src*100 + k), Payload: []uint64{1, 2}})
				th.Wait()
			}
		})
	}
	for dst := 0; dst < 16; dst++ {
		dst := dst
		clk.Spawn("s", func(th *sim.Thread) {
			for {
				if _, ok := m.Eject[dst].PopNB(th); ok {
					if got++; got == total {
						th.Sim().Stop()
					}
				}
				th.Wait()
			}
		})
	}
	t := time.Now()
	s.Run(sim.Infinity - 1)
	el := time.Since(t)
	return ratio(float64(el.Nanoseconds()), stats.Total(s.Metrics().Snapshot(), "", "flits_in"))
}

// crossingProbe is BenchmarkGALSPausibleFIFO's pair: a producer and a
// polling consumer on drifting clocks across a pausible bisynchronous
// FIFO. It returns ns per crossing.
func crossingProbe(cycles int) float64 {
	s := sim.New()
	tx := s.AddClock("tx", 1000, 0)
	rx := s.AddClock("rx", 1013, 170)
	f := gals.NewPausibleBisyncFIFO[int](s, "pf", tx, rx, 4, 40)
	tx.Spawn("p", func(th *sim.Thread) {
		for i := 0; ; i++ {
			f.Push(th, i)
			th.Wait()
		}
	})
	got := 0
	rx.Spawn("c", func(th *sim.Thread) {
		for {
			if _, ok := f.PopNB(); ok {
				got++
			}
			th.Wait()
		}
	})
	t := time.Now()
	s.Run(sim.Time(uint64(cycles) * 1000))
	return ratio(float64(time.Since(t).Nanoseconds()), float64(got))
}

// rtlProbe runs the flow's three testbench datapaths (the BENCH_rtl
// designs) through HLS scheduling, synthesis and RTL compilation, then
// drives random vectors through the compiled evaluator. It returns the
// summed stage times and ns per combinational-cell cycle.
func rtlProbe(scale int) (hlsMs, synthMs, compileMs, nsPerCell float64, err error) {
	rng := rand.New(rand.NewSource(9))
	var stepNs, cellCycles float64
	for _, d := range []*hls.Design{hls.MACDesign(32), hls.FIRDesign(8, 16), hls.ALUDesign(32)} {
		t := time.Now()
		sch := hls.Pipeline(hls.Optimize(d), hls.DefaultConstraints())
		hlsMs += ms(time.Since(t))
		t = time.Now()
		nl := synth.Optimize(synth.Map(sch))
		synthMs += ms(time.Since(t))
		t = time.Now()
		rs, err := rtl.NewSimulatorBackend(nl, rtl.BackendCompiled)
		compileMs += ms(time.Since(t))
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("rtl probe %s: %w", d.Name, err)
		}
		comb, _ := nl.CellCount()
		cycles := max(4_000_000/(comb+1)/scale, 200)
		in := make([]uint64, len(rs.InputPorts()))
		t = time.Now()
		for k := 0; k < cycles; k++ {
			for i := range in {
				in[i] = rng.Uint64()
			}
			rs.StepWords(in, nil)
		}
		stepNs += float64(time.Since(t).Nanoseconds())
		cellCycles += float64(cycles * comb)
	}
	return hlsMs, synthMs, compileMs, ratio(stepNs, cellCycles), nil
}

// cacheProbe times serve.Cache.Get hits on a full 128-entry cache.
func cacheProbe() float64 {
	c := serve.NewCache(128)
	for k := uint64(0); k < 128; k++ {
		c.Put(k, []byte("body"))
	}
	const n = 200_000
	t := time.Now()
	for i := uint64(0); i < n; i++ {
		c.Get(i % 128)
	}
	return float64(time.Since(t).Nanoseconds()) / n
}

// wireProbe times encoding and decoding a Result frame that carries a
// real sim body, returning the median ns per frame of each.
func wireProbe(body []byte, n, reps int) (enc, dec float64, err error) {
	msg := &wire.Result{Job: "job-1", Status: wire.StatusDone, Body: body}
	var w wire.Writer
	if err := wire.WriteMsg(io.Discard, &w, msg); err != nil {
		return 0, 0, err
	}
	frame := append([]byte(nil), w.B...)
	var encs, decs []float64
	var scratch []byte
	for r := 0; r < reps; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			wire.WriteMsg(io.Discard, &w, msg)
		}
		encs = append(encs, float64(time.Since(t).Nanoseconds())/float64(n))
		t = time.Now()
		var m wire.Msg
		for i := 0; i < n; i++ {
			m, scratch, err = wire.ReadMsg(bytes.NewReader(frame), scratch)
			if err != nil {
				return 0, 0, err
			}
		}
		decs = append(decs, float64(time.Since(t).Nanoseconds())/float64(n))
		if got, ok := m.(*wire.Result); !ok || !bytes.Equal(got.Body, body) {
			return 0, 0, errors.New("wire probe: decoded frame differs from the encoded one")
		}
	}
	return median(encs), median(decs), nil
}
