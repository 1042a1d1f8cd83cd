package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/soc"
	"repro/internal/stats"
)

// Iter is one build+run+verify iteration of a SoC test. The layer
// counters are filled only on traced iterations.
type Iter struct {
	Test     string `json:"test"`
	Traced   bool   `json:"traced,omitempty"`
	TotalNs  int64  `json:"total_ns"`
	BuildNs  int64  `json:"build_ns"`
	RunNs    int64  `json:"run_ns"`
	VerifyNs int64  `json:"verify_ns"`
	Cycles   uint64 `json:"cycles"`

	Edges      uint64             `json:"edges,omitempty"`
	Instret    uint64             `json:"instret,omitempty"`
	Threads    int                `json:"threads,omitempty"`
	Allocs     uint64             `json:"allocs,omitempty"`
	AllocBytes uint64             `json:"alloc_bytes,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// Batch is what one soc session reports: its iterations, its reference
// chunks (calib.go), the time spent collecting garbage between
// iterations, every failed check, its spans, what the session left behind
// in the heap, and the child process's peak resident set.
type Batch struct {
	Iters              []Iter   `json:"iters"`
	RefNs              []int64  `json:"ref_ns"`
	GCNs               int64    `json:"gc_ns"`
	Failures           []string `json:"failures,omitempty"`
	Spans              []Span   `json:"spans,omitempty"`
	T0Unix             int64    `json:"t0_unix_ns"`
	GoroutinesRetained float64  `json:"goroutines_retained_per_run"`
	HeapRetainedMB     float64  `json:"heap_retained_mb_per_run"`
	PeakRSSKB          int64    `json:"peak_rss_kb"`
}

// WarmUp builds and runs memcpy once in the variant, checking it against
// the golden counts: the untimed warm-up that ends a session's set-up.
func WarmUp(variant string) error {
	tc := soc.Tests()[0]
	s, verify := tc.Build(variantConfig(variant))
	cycles, err := s.Run(maxCycles)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if err := verify(s); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return checkGolden(variant, tc.Name, countsOf(s, cycles))
}

// RunBatch runs one soc session: rounds of the named tests, each round in
// an order drawn from the seed and the session index. With trace set,
// every other round (counted across sessions) is traced, so the untraced
// rounds give the traced ones' baseline in the same process. A reference
// chunk (calib.go) is timed before every iteration and once after the
// last.
//
// The garbage collector runs between iterations, untimed, once the heap
// has doubled since the last collection, which is when GOGC=100 would
// start one. With the collector otherwise off (ChildMain), a timed
// iteration never shares the CPU with it, so its time is the iteration's
// own work. Every run leaves its design on the heap (see bench/README.md,
// Leaks), and a concurrent collection marking hundreds of megabytes landed
// on whichever iterations it overlapped: the same RTL cosim test took
// 0.4 s in one round and 0.75 s in the next. The collections' cost is
// reported as sim.gc_ms_per_run.
func RunBatch(variant string, tests []string, seed int64, session, rounds int, trace bool, ref *reference) Batch {
	cases := map[string]soc.TestCase{}
	for _, tc := range soc.Tests() {
		cases[tc.Name] = tc
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(session)))
	var b Batch

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0 := runtime.NumGoroutine()
	live := heapBytes()

	t0 := time.Now()
	b.T0Unix = t0.UnixNano()
	rec := newRecorder(t0)
	for r := 0; r < rounds; r++ {
		traced := trace && (session*rounds+r)%2 == 1
		for _, k := range rng.Perm(len(tests)) {
			tc, ok := cases[tests[k]]
			if !ok {
				b.Failures = append(b.Failures, fmt.Sprintf("unknown test %q", tests[k]))
				continue
			}
			var rc *recorder
			if traced {
				rc = rec
			}
			if heapBytes() >= 2*live {
				t := time.Now()
				runtime.GC()
				b.GCNs += time.Since(t).Nanoseconds()
				live = heapBytes()
			}
			b.RefNs = append(b.RefNs, ref.time())
			it, err := runIter(tc, variant, rc, int64(session+1)*reqsPerSession+int64(len(b.Iters)))
			b.Iters = append(b.Iters, it)
			if err != nil {
				b.Failures = append(b.Failures, err.Error())
			}
		}
	}
	b.RefNs = append(b.RefNs, ref.time())
	b.Spans = rec.all()

	if n := float64(len(b.Iters)); n > 0 {
		runtime.GC()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		b.GoroutinesRetained = float64(runtime.NumGoroutine()-g0) / n
		b.HeapRetainedMB = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / 1e6 / n
	}
	return b
}

// heapBytes is the heap's size: live objects and garbage not yet swept.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runIter times one iteration. rec is nil on untraced iterations; a
// traced one also reads allocation counters around Run and snapshots the
// simulator's metrics registry, which is the tracing overhead.
func runIter(tc soc.TestCase, variant string, rec *recorder, req int64) (Iter, error) {
	it := Iter{Test: tc.Name, Traced: rec != nil}
	root := rec.begin("iteration", 0, req)
	start := time.Now()

	sp := rec.begin("soc.build", root, req)
	s, verify := tc.Build(variantConfig(variant))
	tBuilt := time.Now()
	rec.end(sp)

	var m0, m1 runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&m0)
	}
	sp = rec.begin("soc.run", root, req)
	tRun := time.Now()
	cycles, runErr := s.Run(maxCycles)
	tRan := time.Now()
	rec.end(sp)
	if rec != nil {
		runtime.ReadMemStats(&m1)
	}

	sp = rec.begin("soc.verify", root, req)
	tVerify := time.Now()
	verr := verify(s)
	tVerified := time.Now()
	rec.end(sp)

	got := countsOf(s, cycles)
	if rec != nil {
		sp = rec.begin("stats.snapshot", root, req)
		it.Layers = layerCounts(s.Sim.Metrics().Snapshot())
		rec.end(sp)
		it.Edges, it.Instret = got.Edges, got.Instret
		it.Threads = threads(s)
		it.Allocs = m1.Mallocs - m0.Mallocs
		it.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	}
	rec.end(root)
	it.TotalNs = time.Since(start).Nanoseconds()
	it.BuildNs = tBuilt.Sub(start).Nanoseconds()
	it.RunNs = tRan.Sub(tRun).Nanoseconds()
	it.VerifyNs = tVerified.Sub(tVerify).Nanoseconds()
	it.Cycles = cycles

	switch {
	case runErr != nil:
		return it, fmt.Errorf("%s/%s: %w", variant, tc.Name, runErr)
	case verr != nil:
		return it, fmt.Errorf("%s/%s: %w", variant, tc.Name, verr)
	}
	return it, checkGolden(variant, tc.Name, got)
}

// threads counts the simulator's coroutine processes.
func threads(s *soc.SoC) int {
	n := 0
	for _, p := range s.Sim.Processes() {
		if p.Phase == "thread" {
			n++
		}
	}
	return n
}

// layerCounts sums one run's component metrics into per-layer totals:
// Connections channels (the paths that count push attempts), pausible
// CDC FIFOs (the paths that count pauses) and NoC routers.
func layerCounts(ms []stats.Metric) map[string]float64 {
	fifo := map[string]bool{}
	for _, m := range ms {
		if m.Name == "pauses" {
			fifo[m.Path] = true
		}
	}
	out := map[string]float64{}
	for _, m := range ms {
		switch {
		case fifo[m.Path]:
			switch m.Name {
			case "pauses":
				out["pauses"] += m.Value
			case "transfers":
				out["crossings"] += m.Value
			}
		case strings.HasPrefix(m.Path, "soc/noc/r["):
			switch m.Name {
			case "flits_in":
				out["flits"] += m.Value
			case "stalls":
				out["stalls"] += m.Value
			}
		default:
			switch m.Name {
			case "transfers", "push_attempts", "push_fails":
				out[m.Name] += m.Value
			}
		}
	}
	return out
}

// socMetrics reduces a soc run's sessions to its metrics: end-to-end ones
// from untraced iterations, per-layer ones from traced iterations.
// Throughput and latency use calibrated times: each session's raw times
// scaled by the mean of its reference chunks (calib.go). Throughput is the
// plain rate over every untraced iteration.
func socMetrics(variant string, batches []Batch, setups, rssMB []float64, e2e, layer map[string]float64) {
	var iterMs []float64 // calibrated build+run+verify time of every untraced iteration
	var n, totalNs, runNs, cycles float64
	var tracedNs, nTraced float64
	for _, b := range batches {
		c := calibration(b.RefNs...)
		for _, it := range b.Iters {
			total := float64(it.TotalNs) * c
			if it.Traced {
				tracedNs += total
				nTraced++
				continue
			}
			n++
			totalNs += total
			runNs += float64(it.RunNs) * c
			cycles += float64(it.Cycles)
			iterMs = append(iterMs, total/1e6)
		}
	}
	e2e["ops_per_s"] = ratio(n, totalNs/1e9)
	e2e["sim_cycles_per_s"] = ratio(cycles, runNs/1e9)
	e2e["setup_s"] = median(setups)
	layer["cold_p50_ms"] = percentile(iterMs, 50)
	layer["cold_p90_ms"] = percentile(iterMs, 90)
	layer["peak_rss_mb"] = median(rssMB)

	var gr, hr []float64
	var gcNs, iters float64
	sum := map[string]float64{}
	perTest := map[string][]float64{}
	for _, b := range batches {
		gr = append(gr, b.GoroutinesRetained)
		hr = append(hr, b.HeapRetainedMB)
		gcNs += float64(b.GCNs)
		iters += float64(len(b.Iters))
		for _, it := range b.Iters {
			if !it.Traced {
				continue
			}
			sum["n"]++
			sum["run_ns"] += float64(it.RunNs)
			sum["build_ns"] += float64(it.BuildNs)
			sum["verify_ns"] += float64(it.VerifyNs)
			sum["cycles"] += float64(it.Cycles)
			sum["edges"] += float64(it.Edges)
			sum["instret"] += float64(it.Instret)
			sum["threads"] += float64(it.Threads)
			sum["allocs"] += float64(it.Allocs)
			sum["alloc_bytes"] += float64(it.AllocBytes)
			for k, v := range it.Layers {
				sum[k] += v
			}
			perTest[it.Test] = append(perTest[it.Test], float64(it.Cycles))
		}
	}
	per := func(k string) float64 { return ratio(sum[k], sum["n"]) }
	layer["sim.run_ms_per_run"] = per("run_ns") / 1e6
	layer["sim.ns_per_edge"] = ratio(sum["run_ns"], sum["edges"])
	layer["sim.edges_per_run"] = per("edges")
	layer["sim.threads_per_run"] = per("threads")
	layer["sim.allocs_per_run"] = per("allocs")
	layer["sim.alloc_kb_per_run"] = per("alloc_bytes") / 1e3
	layer["sim.goroutines_retained_per_run"] = median(gr)
	layer["sim.heap_retained_mb_per_run"] = median(hr)
	layer["sim.gc_ms_per_run"] = ratio(gcNs, iters) / 1e6
	layer["soc.build_ms"] = per("build_ns") / 1e6
	layer["soc.verify_ms"] = per("verify_ns") / 1e6
	layer["soc.cycles_per_run"] = per("cycles")
	layer["riscv.ipc"] = ratio(sum["instret"], sum["cycles"])
	layer["connections.transfers_per_run"] = per("transfers")
	layer["connections.push_fail_ratio"] = ratio(sum["push_fails"], sum["push_attempts"])
	layer["noc.flits_per_run"] = per("flits")
	layer["noc.stalls_per_flit"] = ratio(sum["stalls"], sum["flits"])
	layer["gals.pauses_per_run"] = per("pauses")
	layer["gals.crossings_per_run"] = per("crossings")
	if variant == "sync" {
		layer["soc.tlm_cycle_err_pct"] = tlmCycleErr(perTest)
	}
	if nTraced > 0 && n > 0 {
		layer["trace_overhead_pct"] = 100 * (tracedNs/nTraced/(totalNs/n) - 1)
	}
}

// tlmCycleErr is the mean |TLM − RTL-cosim| / RTL-cosim cycle error in
// percent over the single-clock TLM tests measured, taking the RTL-cosim
// cycles from the golden file. RTL cosimulation is the repository's only
// reference model; the model is unvalidated against silicon.
func tlmCycleErr(perTest map[string][]float64) float64 {
	var errs []float64
	for test, cs := range perTest {
		if rtl := float64(golden["rtl"][test].Cycles); rtl > 0 {
			errs = append(errs, 100*math.Abs(mean(cs)-rtl)/rtl)
		}
	}
	return mean(errs)
}
