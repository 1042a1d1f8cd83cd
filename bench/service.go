package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/soc"
	"repro/internal/stats"
)

// Cluster is one running instance of the job service: a socd, or a socgw
// fronting its workers. Stop ends it and returns its peak resident set in
// KB, summed over its processes (0 when it runs in-process).
type Cluster struct {
	URL  string
	Stop func() (rssKB int64, err error)
}

// Starter starts a fresh serve (fleet false) or fleet (fleet true)
// cluster. Each service session gets its own, so one session's leaks
// never reach the next.
type Starter func(fleet bool) (*Cluster, error)

// request is one entry of a session's request stream.
type request struct {
	Kind string
	Test string // the SoC test a sim request runs
	Spec string
	// Orig is the index of the first request for the same spec, -1 if
	// this is it. A request with an earlier original is a planned cache
	// hit: the stream only repeats a spec while it is among the hitWindow
	// most recently used, so the 128-entry LRU still holds it.
	Orig int
}

// mix is the composition of a session's stream: how many requests of each
// class it holds, shuffled.
type mix struct {
	cold, repeat, static, stallhunt, verify, qor int
	gap                                          int // a repeat names a spec first requested at least this many requests back
}

// fullMix is the benchmark's traffic, 200 requests: 90 cold sims (each
// test fifteen times, stall 0.05, stall seeds 1-15), 71 repeats of earlier
// sims, 20 lint/rateck over tests × {sync, gals}, 16 stall hunts (seeds
// 1-16), 2 model checks (memcpy on one clock, vecadd under GALS) and one
// QoR table.
//
// The workload seed shuffles the stream and picks the repeats and static
// checks, but every stream computes the same cold sims, stall hunts and
// model checks: a stall seed changes a sim's work by up to a few percent
// and a model check's by more, so streams drawn with different stall
// seeds or model checks differ in work, not only in order. A model check
// takes 0.7-1.6 s, and its time varied by 10% between sessions in a way
// the reference chunks (calib.go) do not follow; six of them made two
// fifths of a session and spread serve-mix's throughput by 5%, so the
// stream runs two.
var fullMix = mix{cold: 90, repeat: 71, static: 20, stallhunt: 16, verify: 2, qor: 1, gap: 8}

// tinyMix is the self-test's stream.
var tinyMix = mix{cold: 3, repeat: 2, static: 2, stallhunt: 1, gap: 2}

// hitWindow is how many of the most recently used distinct specs a repeat
// may name: half the daemons' 128-entry LRU, so a planned hit is never
// near eviction.
const hitWindow = 64

// traceEveryOther marks every other request of each kind for tracing,
// counting on from earlier sessions in seen, so a kind with one request
// per session still has traced and untraced ones in a run.
func traceEveryOther(stream []request, seen map[string]int) []bool {
	traced := make([]bool, len(stream))
	for i, r := range stream {
		k := r.Kind
		if r.Orig >= 0 {
			k = "repeat"
		}
		traced[i] = seen[k]%2 == 1
		seen[k]++
	}
	return traced
}

// genStream draws one session's request stream from the seed.
func genStream(seed int64, session int, m mix) []request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(session) + 1<<40))
	var slots []string
	for _, c := range []struct {
		kind string
		n    int
	}{{"cold", m.cold}, {"repeat", m.repeat}, {"static", m.static}, {"stallhunt", m.stallhunt}, {"verify", m.verify}, {"qor", m.qor}} {
		for i := 0; i < c.n; i++ {
			slots = append(slots, c.kind)
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	// A repeat needs a cold sim at least gap requests before it; move
	// early repeats back behind the next cold slot.
	for i := range slots {
		if slots[i] != "repeat" {
			continue
		}
		ok := false
		for j := 0; j <= i-m.gap; j++ {
			ok = ok || slots[j] == "cold"
		}
		if ok {
			continue
		}
		for j := i + 1; j < len(slots); j++ {
			if slots[j] == "cold" {
				slots[i], slots[j] = slots[j], slots[i]
				break
			}
		}
	}

	tests := make([]string, 0, 6)
	for _, tc := range soc.Tests() {
		tests = append(tests, tc.Name)
	}
	// Specs in the order the cache last saw them, least recent first; a
	// spec may be requested again only while it is among the last
	// hitWindow of them.
	var used []string
	cached := func(spec string) bool {
		for _, s := range used[max(0, len(used)-hitWindow):] {
			if s == spec {
				return true
			}
		}
		return false
	}
	first := map[string]int{}
	var coldOrder []string
	var colds []int
	static := 0
	verifyOrder := rng.Perm(m.verify)
	coldSeed := map[string]int{} // cold sims of each test so far
	hunts := 0
	out := make([]request, 0, len(slots))
	for i, k := range slots {
		r := request{Kind: k, Orig: -1}
		switch k {
		case "repeat":
			var cands []int
			for _, c := range colds {
				if c <= i-m.gap && cached(out[c].Spec) {
					cands = append(cands, c)
				}
			}
			if len(cands) > 0 {
				c := cands[rng.Intn(len(cands))]
				r.Kind, r.Test, r.Spec = "sim", out[c].Test, out[c].Spec
			}
		case "static":
			r.Kind = []string{"lint", "rateck"}[static%2]
			static++
			var cands []string
			for _, test := range tests {
				for _, gals := range []bool{false, true} {
					spec := fmt.Sprintf(`{"kind":%q,"test":%q,"gals":%t}`, r.Kind, test, gals)
					if _, seen := first[spec]; !seen || cached(spec) {
						cands = append(cands, spec)
					}
				}
			}
			if len(cands) > 0 {
				r.Spec = cands[rng.Intn(len(cands))]
			}
		case "stallhunt":
			hunts++
			r.Spec = fmt.Sprintf(`{"kind":"stallhunt","stall":0.3,"messages":40,"seeds":2,"seed":%d}`, hunts)
		case "verify":
			v := verifyOrder[0]
			verifyOrder = verifyOrder[1:]
			r.Spec = fmt.Sprintf(`{"kind":"verify","test":%q,"gals":%t}`, tests[v], v%2 == 1)
		case "qor":
			r.Spec = `{"kind":"qor"}`
		}
		if r.Spec == "" {
			// A repeat or static check with nothing left to name in the
			// window (rare): a cold sim instead.
			r.Kind = "cold"
		}
		if r.Kind == "cold" {
			if len(coldOrder) == 0 {
				coldOrder = append(coldOrder, tests...)
				rng.Shuffle(len(coldOrder), func(a, b int) { coldOrder[a], coldOrder[b] = coldOrder[b], coldOrder[a] })
			}
			r.Kind, r.Test = "sim", coldOrder[0]
			coldSeed[r.Test]++
			r.Spec = fmt.Sprintf(`{"kind":"sim","test":%q,"stall":0.05,"seed":%d}`, r.Test, coldSeed[r.Test])
			coldOrder = coldOrder[1:]
		}
		if f, ok := first[r.Spec]; ok {
			r.Orig = f
		} else {
			first[r.Spec] = i
			if r.Kind == "sim" {
				colds = append(colds, i)
			}
		}
		for j, s := range used {
			if s == r.Spec {
				used = append(used[:j], used[j+1:]...)
				break
			}
		}
		used = append(used, r.Spec)
		out = append(out, r)
	}
	return out
}

// outcome is what the client saw for one request.
type outcome struct {
	status int
	cache  string
	body   []byte
	lat    time.Duration
	traced bool
	err    error
	// traced requests only: span durations, and whether the job ran.
	queue, exec, fetch time.Duration
	ran                bool
}

// session is one service session's raw results. refs are its reference
// chunks, one timed before every request and one after the last.
type session struct {
	stream   []request
	outs     []outcome
	refs     []int64
	setup    float64 // calibrated seconds
	rssKB    int64
	before   []stats.Metric
	after    []stats.Metric
	healthz  []float64
	failures []string
}

const warmUpSpec = `{"kind":"sim","test":"memcpy"}`

// startCluster starts a cluster and brings it to ready: /healthz answers
// (with both workers registered, for a fleet) and one warm-up sim outside
// the stream has returned its golden counts. It returns the set-up time,
// calibrated by reference chunks timed right before and right after it.
func startCluster(start Starter, fleet bool, ref *reference) (*Cluster, float64, error) {
	before := ref.time()
	t0 := time.Now()
	c, err := start(fleet)
	if err != nil {
		return nil, 0, err
	}
	cl := newClient()
	if err := waitReady(cl, c.URL, fleet); err != nil {
		c.Stop()
		return nil, 0, err
	}
	o := submitWait(cl, c.URL, warmUpSpec)
	if err := checkWarmUp(o); err != nil {
		c.Stop()
		return nil, 0, err
	}
	setup := time.Since(t0).Seconds()
	return c, setup * calibration(before, ref.time()), nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func waitReady(cl *http.Client, url string, fleet bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := cl.Get(url + "/healthz")
		if err == nil {
			var h struct {
				Workers int `json:"workers"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && (!fleet || h.Workers == 2) {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("service not ready within 30s")
}

func checkWarmUp(o outcome) error {
	if o.err != nil || o.status != http.StatusOK {
		return fmt.Errorf("warm-up: status %d: %v %s", o.status, o.err, o.body)
	}
	var b struct {
		Status  string `json:"status"`
		Cycles  uint64 `json:"cycles"`
		Instret uint64 `json:"instret"`
		Pauses  uint64 `json:"pauses"`
	}
	if err := json.Unmarshal(o.body, &b); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	g := golden["sync"]["memcpy"]
	if b.Status != "PASS" || b.Cycles != g.Cycles || b.Instret != g.Instret || b.Pauses != g.Pauses {
		return fmt.Errorf("warm-up: body %s does not match golden %+v", bytes.TrimSpace(o.body), g)
	}
	return nil
}

// submitWait does what `socctl submit -wait` does.
func submitWait(cl *http.Client, url, spec string) outcome {
	t0 := time.Now()
	resp, err := cl.Post(url+"/jobs?wait=1", "application/json", strings.NewReader(spec))
	if err != nil {
		return outcome{err: err, lat: time.Since(t0)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return outcome{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body, err: err, lat: time.Since(t0)}
}

// submitTraced splits one request into spans: the POST without wait, the
// queue wait and the execution as seen on the job's NDJSON event stream
// (timestamped on arrival), and the GET of the result.
func submitTraced(cl *http.Client, url, spec string, rec *recorder, req int64) (o outcome) {
	o.traced = true
	t0 := time.Now()
	root := rec.begin("request", 0, req)
	defer func() {
		rec.end(root)
		o.lat = time.Since(t0)
	}()

	sp := rec.begin("http.submit", root, req)
	var sub struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	resp, err := cl.Post(url+"/jobs", "application/json", strings.NewReader(spec))
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		o.status = resp.StatusCode
	}
	rec.end(sp)
	submitted := time.Now()
	if err != nil || sub.ID == "" {
		o.err = fmt.Errorf("submit: %v", err)
		return o
	}

	if sub.Status != "done" {
		started, finished, err := watch(cl, url, sub.ID)
		if err != nil {
			o.err = err
			return o
		}
		if started.IsZero() {
			rec.add("serve.queue", root, req, submitted, finished)
			o.queue = finished.Sub(submitted)
		} else {
			rec.add("serve.queue", root, req, submitted, started)
			rec.add("serve.exec", root, req, started, finished)
			o.queue, o.exec, o.ran = started.Sub(submitted), finished.Sub(started), true
		}
	}

	sp = rec.begin("http.result", root, req)
	tf := time.Now()
	resp, err = cl.Get(url + "/jobs/" + sub.ID + "/result")
	if err == nil {
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.status, o.cache = resp.StatusCode, resp.Header.Get("X-Cache")
	}
	o.err, o.fetch = err, time.Since(tf)
	rec.end(sp)
	return o
}

// watch reads a job's event stream to its end and returns when the
// "start" and the terminal events arrived (started is zero when the job
// never ran here, as for a worker-cache hit behind the gateway).
func watch(cl *http.Client, url, id string) (started, finished time.Time, err error) {
	resp, err := cl.Get(url + "/jobs/" + id + "/stream")
	if err != nil {
		return started, finished, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e serve.Event
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		switch {
		case e.Event == "start" && started.IsZero():
			started = time.Now()
		case e.Terminal():
			finished = time.Now()
		}
	}
	if finished.IsZero() {
		return started, finished, fmt.Errorf("stream of %s ended without a terminal event: %v", id, sc.Err())
	}
	return started, finished, nil
}

// runSession drives one stream through a fresh cluster from one
// closed-loop client on one keep-alive connection, as a `socctl submit
// -wait` user would: each request is sent when the previous one has
// answered, so every planned hit finds the cache filled. A reference chunk
// is timed before every request and after the last (calib.go). Requests
// marked in traced take the traced path, with request ids counted from
// reqBase; traced is nil in an untraced run.
func runSession(start Starter, fleet bool, stream []request, traced []bool, ref *reference, rec *recorder, reqBase int64) (*session, error) {
	c, setup, err := startCluster(start, fleet, ref)
	if err != nil {
		return nil, err
	}
	s := &session{stream: stream, outs: make([]outcome, len(stream)), setup: setup}
	stopped := false
	defer func() {
		if !stopped {
			c.Stop()
		}
	}()
	cl := newClient()
	if s.before, err = fetchMetrics(cl, c.URL); err != nil {
		return nil, err
	}
	for i, r := range stream {
		s.refs = append(s.refs, ref.time())
		if traced != nil && traced[i] {
			s.outs[i] = submitTraced(cl, c.URL, r.Spec, rec, reqBase+int64(i))
		} else {
			s.outs[i] = submitWait(cl, c.URL, r.Spec)
		}
	}
	s.refs = append(s.refs, ref.time())

	if s.after, err = fetchMetrics(cl, c.URL); err != nil {
		return nil, err
	}
	if traced != nil {
		for i := 0; i < 200; i++ {
			t := time.Now()
			resp, err := cl.Get(c.URL + "/healthz")
			if err != nil {
				return nil, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			s.healthz = append(s.healthz, float64(time.Since(t).Nanoseconds())/1e6)
		}
	}
	stopped = true
	if s.rssKB, err = c.Stop(); err != nil {
		return nil, err
	}
	s.failures = checkSession(s, fleet)
	return s, nil
}

func fetchMetrics(cl *http.Client, url string) ([]stats.Metric, error) {
	resp, err := cl.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return stats.ParseJSON(data)
}

// checkSession applies the per-request checks to a finished session:
// every request answered 200, every sim passed its test, and every repeat
// was a cache hit that returned its original's bytes. A fleet must also
// have resubmitted nothing and routed nothing around, as no worker was
// lost or full.
func checkSession(s *session, fleet bool) []string {
	var fails []string
	for i, r := range s.stream {
		o := s.outs[i]
		if o.err != nil || o.status != http.StatusOK {
			fails = append(fails, fmt.Sprintf("request %d (%s): status %d: %v %s", i, r.Spec, o.status, o.err, bytes.TrimSpace(o.body)))
			continue
		}
		if r.Kind == "sim" {
			var b struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal(o.body, &b); err != nil || b.Status != "PASS" {
				fails = append(fails, fmt.Sprintf("request %d (%s): sim did not pass: %s", i, r.Spec, bytes.TrimSpace(o.body)))
			}
		}
		if r.Orig < 0 {
			continue
		}
		if o.cache != "hit" {
			fails = append(fails, fmt.Sprintf("request %d (%s): planned cache hit answered X-Cache %q", i, r.Spec, o.cache))
		}
		if !bytes.Equal(o.body, s.outs[r.Orig].body) {
			fails = append(fails, fmt.Sprintf("request %d (%s): repeat body differs from request %d's", i, r.Spec, r.Orig))
		}
	}
	if fleet {
		for _, name := range []string{"resubmitted", "routed_around"} {
			if d := stats.Total(s.after, "fleet/failover", name) - stats.Total(s.before, "fleet/failover", name); d != 0 {
				fails = append(fails, fmt.Sprintf("fleet/failover %s: %g jobs", name, d))
			}
		}
	}
	return fails
}

// checkReferences compares a sample of a run's bodies with what
// serve.Execute computes in-process for the same spec: the first cold sim
// of each test and the first request of every other kind but verify,
// which takes most of a second. A fleet's bodies therefore equal a lone
// socd's. It runs after the measurement, because every in-process
// simulation leaves its design behind in this process (the ROADMAP
// lifecycle item) and would slow the sessions that follow it.
func checkReferences(sessions []*session) []string {
	var fails []string
	sampled := map[string]bool{}
	for _, s := range sessions {
		for i, r := range s.stream {
			key := r.Kind + "/" + r.Test
			if r.Orig >= 0 || r.Kind == "verify" || sampled[key] || s.outs[i].status != http.StatusOK {
				continue
			}
			sampled[key] = true
			want, err := executeLocal(r.Spec)
			if err != nil {
				fails = append(fails, fmt.Sprintf("%s: in-process reference: %v", r.Spec, err))
			} else if !bytes.Equal(s.outs[i].body, want) {
				fails = append(fails, fmt.Sprintf("%s: body differs from in-process serve.Execute", r.Spec))
			}
		}
	}
	return fails
}

// executeLocal computes a spec's body in-process the way a socd worker
// does: one exp job seeded with the spec's content hash.
func executeLocal(specJSON string) ([]byte, error) {
	spec, err := serve.ParseSpec([]byte(specJSON))
	if err != nil {
		return nil, err
	}
	sum := exp.Run([]exp.Job{{
		Name: "job",
		Run:  func(c *exp.Ctx) (any, error) { return serve.Execute(c, spec, nil) },
	}}, exp.Named("serve"), exp.Seed(int64(spec.Hash())))
	r := sum.Results[0]
	if r.Err != nil {
		return nil, r.Err
	}
	return r.Value.([]byte), nil
}

// serviceMetrics reduces a service run's sessions to its metrics.
// Request latencies are calibrated: each session's raw latencies scaled by
// the mean of its reference chunks (calib.go). Hit latencies are per-layer
// and stay raw host time.
func serviceMetrics(fleet bool, sessions []*session, setups []float64, idleRSSKB float64, e2e, layer map[string]float64) {
	var jobs, totalMs, coldMs, coldCycles, planned, unexpected float64
	var cold, hits, tracedCold, queue, fetch, healthz, rss []float64
	exec := map[string][]float64{}
	for _, s := range sessions {
		jobs += float64(len(s.stream))
		rss = append(rss, float64(s.rssKB)*1024/1e6)
		healthz = append(healthz, s.healthz...)
		c := calibration(s.refs...)
		for i, r := range s.stream {
			o := s.outs[i]
			ms := float64(o.lat.Nanoseconds()) / 1e6 * c
			totalMs += ms
			if r.Orig >= 0 {
				planned++
				if o.cache != "hit" {
					unexpected++
				}
			}
			if o.traced {
				fetch = append(fetch, float64(o.fetch.Nanoseconds())/1e6)
				if o.ran {
					queue = append(queue, float64(o.queue.Nanoseconds())/1e6)
					exec[r.Kind] = append(exec[r.Kind], float64(o.exec.Nanoseconds())/1e6)
				}
				if r.Kind == "sim" && o.cache == "miss" {
					tracedCold = append(tracedCold, ms)
				}
				continue
			}
			switch {
			case o.cache == "hit":
				hits = append(hits, float64(o.lat.Nanoseconds())/1e6)
			case r.Kind == "sim":
				cold = append(cold, ms)
				var b struct {
					Cycles float64 `json:"cycles"`
				}
				if json.Unmarshal(o.body, &b) == nil {
					coldMs += ms
					coldCycles += b.Cycles
				}
			}
		}
	}
	e2e["ops_per_s"] = ratio(jobs, totalMs/1e3)
	e2e["sim_cycles_per_s"] = ratio(coldCycles, coldMs/1e3)
	e2e["setup_s"] = median(setups)
	layer["cold_p50_ms"] = percentile(cold, 50)
	layer["cold_p90_ms"] = percentile(cold, 90)
	layer["peak_rss_mb"] = median(rss)

	layer["serve.hit_p50_ms"] = percentile(hits, 50)
	layer["serve.hit_p90_ms"] = percentile(hits, 90)
	layer["serve.queue_wait_ms_p50"] = percentile(queue, 50)
	layer["serve.queue_wait_ms_p90"] = percentile(queue, 90)
	for _, k := range []string{"sim", "lint", "rateck", "stallhunt", "verify"} {
		layer["serve.exec_ms_p50."+k] = percentile(exec[k], 50)
	}
	layer["serve.result_fetch_ms_p50"] = percentile(fetch, 50)
	layer["http.healthz_rtt_ms_p50"] = percentile(healthz, 50)
	layer["serve.planned_hit_ratio"] = ratio(planned, jobs)
	layer["serve.unexpected_misses"] = unexpected
	if idleRSSKB > 0 && len(sessions) > 0 {
		layer["serve.rss_growth_kb_per_job"] = (median(rss)*1e6/1024 - idleRSSKB) / (jobs / float64(len(sessions)))
	}
	if len(tracedCold) > 0 && len(cold) > 0 {
		layer["trace_overhead_pct"] = 100 * (mean(tracedCold)/mean(cold) - 1)
	}

	delta := func(path, name string) float64 {
		var d float64
		for _, s := range sessions {
			d += stats.Total(s.after, path, name) - stats.Total(s.before, path, name)
		}
		return d
	}
	if !fleet {
		h, m := delta("serve/cache", "hits"), delta("serve/cache", "misses")
		layer["serve.cache_hit_ratio"] = ratio(h, h+m)
		return
	}
	completed := delta("fleet/jobs", "completed")
	gw, wk := delta("fleet/jobs", "gateway_cache_hits"), delta("fleet/jobs", "worker_cache_hits")
	layer["serve.cache_hit_ratio"] = ratio(gw+wk, completed)
	layer["fleet.gateway_cache_hit_ratio"] = ratio(gw, completed)
	layer["fleet.worker_cache_hit_ratio"] = ratio(wk, completed)
	layer["fleet.wire_frames_per_job"] = ratio(delta("fleet/wire", "frames_in")+delta("fleet/wire", "frames_out"), completed)
	layer["fleet.wire_bytes_per_job"] = ratio(delta("fleet/wire", "bytes_in")+delta("fleet/wire", "bytes_out"), completed)
	layer["fleet.resubmitted"] = delta("fleet/failover", "resubmitted")
	layer["fleet.routed_around"] = delta("fleet/failover", "routed_around")
}
