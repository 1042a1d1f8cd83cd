package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// inProcess starts clusters inside the test process on loopback: a
// serve.Server, or a fleet.Gateway with two single-worker servers joined
// over the wire protocol.
func inProcess(isFleet bool) (*Cluster, error) {
	var stops []func()
	stop := func() (int64, error) {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		return 0, nil
	}
	listen := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h}
		go hs.Serve(ln)
		stops = append(stops, func() { hs.Close() })
		return ln.Addr().String(), nil
	}
	drain := func(f func(context.Context) error) func() {
		return func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			f(ctx)
		}
	}
	if !isFleet {
		srv := serve.New(serve.Config{})
		stops = append(stops, drain(srv.Shutdown))
		addr, err := listen(srv.Handler())
		if err != nil {
			stop()
			return nil, err
		}
		return &Cluster{URL: "http://" + addr, Stop: stop}, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	var workers []chan struct{}
	stops = append(stops, func() {
		cancel()
		for _, done := range workers {
			<-done
		}
	})
	gw := fleet.NewGateway(fleet.GatewayConfig{})
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stop()
		return nil, err
	}
	go gw.ServeWorkers(wln)
	stops = append(stops, drain(gw.Shutdown), func() { wln.Close() })
	for _, name := range []string{"w1", "w2"} {
		srv := serve.New(serve.Config{Workers: 1, QueueDepth: 64}) // as ProcessStarter's
		stops = append(stops, drain(srv.Shutdown))
		wk, err := fleet.NewWorker(srv, fleet.WorkerConfig{Name: name, Gateway: wln.Addr().String()})
		if err != nil {
			stop()
			return nil, err
		}
		done := make(chan struct{})
		workers = append(workers, done)
		go func() {
			defer close(done)
			wk.Run(ctx)
		}()
	}
	addr, err := listen(gw.Handler())
	if err != nil {
		stop()
		return nil, err
	}
	return &Cluster{URL: "http://" + addr, Stop: stop}, nil
}

// TestWorkloads runs every workload at a tiny size, untraced and traced,
// and checks the runs pass, report exactly BENCHMARK.json's metrics with
// their units, and record spans that nest.
func TestWorkloads(t *testing.T) {
	spec, err := ReadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, d := range spec.EndToEnd {
		want[false][d.Name] = d.Unit
	}
	for _, d := range spec.PerLayer {
		want[true][d.Name] = d.Unit
	}
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w, trace), func(t *testing.T) {
				t.Parallel()
				res, err := Run(Options{Workload: w, Seed: 1, Trace: trace, Tiny: true, Start: inProcess})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Errorf("correct=%t attempted=%d failures=%q", res.Correct, res.Attempted, res.Failures)
				}
				if len(res.Metrics) != len(want[trace]) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want[trace]))
				}
				for name, unit := range want[trace] {
					if v, ok := res.Metrics[name]; !ok || v.Unit != unit {
						t.Errorf("metric %s = %+v, want unit %q", name, v, unit)
					}
				}
				if trace {
					if len(res.Spans) == 0 {
						t.Error("traced run recorded no spans")
					}
					checkNesting(t, w, res.Spans)
				}
			})
		}
	}
}

func checkNesting(t *testing.T, w string, spans []Span) {
	t.Helper()
	byID := map[int64]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := SelfTimes(spans)
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s: span %+v ends before it starts", w, s)
		}
		if self[s.ID] < 0 {
			t.Errorf("%s: span %+v has negative self time %d", w, s, self[s.ID])
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("%s: span %+v has no parent", w, s)
		case s.Start < p.Start || s.End > p.End || s.Req != p.Req:
			t.Errorf("%s: span %+v lies outside its parent %+v", w, s, p)
		}
	}
}

// TestSpecMatchesCode keeps BENCHMARK.json's lists and the code's in step.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := ReadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !equal(names, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, Workloads)
	}
	if len(spec.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(spec.EndToEnd), len(EndToEnd))
	}
	for i, d := range spec.EndToEnd {
		if c := EndToEnd[i]; d.Name != c.Name || d.Unit != c.Unit || d.Better != c.Better {
			t.Errorf("end_to_end[%d] = %+v, code %+v", i, d, c)
		}
	}
	if len(spec.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(spec.PerLayer), len(PerLayer))
	}
	for i, d := range spec.PerLayer {
		if d != PerLayer[i] {
			t.Errorf("per_layer[%d] = %+v, code %+v", i, d, PerLayer[i])
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// syntheticRuns returns three untraced runs per workload whose metrics
// jitter by under a percent around fixed values.
func syntheticRuns(scale map[string]float64) []*Result {
	var runs []*Result
	for _, w := range Workloads {
		for i, j := range []float64{0.995, 1, 1.004} {
			vals := map[string]float64{}
			for k, d := range EndToEnd {
				vals[d.Name] = float64(10*(k+1)) * j * scale[d.Name]
			}
			runs = append(runs, &Result{Workload: w, Seed: int64(i + 1), Metrics: fill(EndToEnd, vals)})
		}
	}
	return runs
}

func TestCompare(t *testing.T) {
	spec, err := ReadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ones := map[string]float64{}
	for _, d := range EndToEnd {
		ones[d.Name] = 1
	}
	base := syntheticRuns(ones)

	rows := Compare(spec, base, syntheticRuns(ones))
	if len(rows) != len(Workloads)*len(EndToEnd) {
		t.Fatalf("%d rows, want %d", len(rows), len(Workloads)*len(EndToEnd))
	}
	for _, r := range rows {
		if r.Verdict != Same {
			t.Errorf("identical sets: %s/%s is %s", r.Workload, r.Metric, r.Verdict)
		}
	}

	// A regression of every metric five points past its bound, in its own
	// bad direction: the bounds must catch it.
	worse := map[string]float64{}
	for _, d := range spec.EndToEnd {
		worse[d.Name] = 1 + d.Bound + 0.05
		if d.Better == "higher" {
			worse[d.Name] = 1 - d.Bound - 0.05
		}
	}
	rows = Compare(spec, base, syntheticRuns(worse))
	for _, r := range rows {
		if r.Verdict != Worse {
			t.Errorf("regression past the bound: %s/%s is %s (change %.3f, bound %.2f)", r.Workload, r.Metric, r.Verdict, r.Change, r.Bound)
		}
	}
	if !WriteRows(io.Discard, rows) {
		t.Error("WriteRows does not report the regression")
	}
}

// TestStreamPlan checks the full request stream at several seeds: the
// same composition and the same computed specs at every seed, and every
// repeat still in a 128-entry LRU fed in stream order.
func TestStreamPlan(t *testing.T) {
	var computed0 []string
	for seed := int64(1); seed <= 10; seed++ {
		stream := genStream(seed, 0, fullMix)
		kinds := map[string]int{}
		var lru, computed []string
		for i, r := range stream {
			if r.Orig < 0 && r.Kind != "lint" && r.Kind != "rateck" {
				computed = append(computed, r.Spec)
			}
			k := r.Kind
			if r.Orig >= 0 {
				k = "repeat " + k
				pos := -1
				for j, s := range lru {
					if s == r.Spec {
						pos = len(lru) - j
					}
				}
				if pos < 0 || pos > 128 {
					t.Errorf("seed %d request %d (%s): planned hit at LRU position %d", seed, i, r.Spec, pos)
				}
				if r.Kind == "sim" && r.Orig > i-fullMix.gap {
					t.Errorf("seed %d request %d: repeat of request %d, under %d back", seed, i, r.Orig, fullMix.gap)
				}
			}
			kinds[k]++
			for j, s := range lru {
				if s == r.Spec {
					lru = append(lru[:j], lru[j+1:]...)
					break
				}
			}
			lru = append(lru, r.Spec)
		}
		if len(stream) != 200 || kinds["sim"] != fullMix.cold || kinds["repeat sim"] != fullMix.repeat ||
			kinds["verify"] != fullMix.verify || kinds["stallhunt"] != fullMix.stallhunt || kinds["qor"] != fullMix.qor {
			t.Errorf("seed %d: %d requests %v", seed, len(stream), kinds)
		}
		sort.Strings(computed)
		if computed0 == nil {
			computed0 = computed
		} else if !equal(computed, computed0) {
			t.Errorf("seed %d computes other sims, stall hunts or model checks than seed 1", seed)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
