package fleet

// End-to-end fleet tests: a real Gateway fronting real serve.Server
// workers connected over loopback TCP, driven through the client HTTP
// surface exactly as socctl would. Job timing is controlled with the
// same gate idiom internal/serve's tests use: a synthetic job kind
// that parks until its seed's gate channel opens.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/serve"
)

var (
	gateMu sync.Mutex
	gates  = map[int64]chan struct{}{}
	// seedCounter hands out fresh gate seeds so repeated runs (-count>1)
	// never reuse a gate an earlier iteration already closed.
	seedCounter atomic.Int64
)

func nextSeed() int64 { return seedCounter.Add(1) }

func gate(seed int64) chan struct{} {
	gateMu.Lock()
	defer gateMu.Unlock()
	ch, ok := gates[seed]
	if !ok {
		ch = make(chan struct{})
		gates[seed] = ch
	}
	return ch
}

func openGate(seed int64) {
	ch := gate(seed)
	select {
	case <-ch:
	default:
		close(ch)
	}
}

func TestMain(m *testing.M) {
	// "fleettest" parks until its gate opens (seed 0 = ungated), then
	// returns a body derived only from the spec — the determinism the
	// byte-identity assertions lean on.
	serve.RegisterTestKind("fleettest", func(c *exp.Ctx, spec serve.Spec, p serve.Progress) ([]byte, error) {
		if spec.Seed != 0 {
			select {
			case <-gate(spec.Seed):
			case <-c.Context().Done():
				return nil, c.Context().Err()
			}
		}
		return []byte(fmt.Sprintf("{\"kind\":\"fleettest\",\"seed\":%d,\"messages\":%d}\n",
			spec.Seed, spec.Messages)), nil
	})
	os.Exit(m.Run())
}

// testGateway runs a gateway with fast failover timings plus its two
// listeners; cleanup tears everything down.
func testGateway(t *testing.T, cfg GatewayConfig) (*Gateway, *httptest.Server, net.Listener) {
	t.Helper()
	if cfg.DeadAfter == 0 {
		cfg.DeadAfter = 2 * time.Second
	}
	gw := NewGateway(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.ServeWorkers(ln)
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		ts.Close()
		ln.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
	})
	return gw, ts, ln
}

// testWorker starts a daemon-side server joined to the gateway as a
// fleet worker. The returned cancel kills the worker's fleet session
// (the serve server keeps running, like a socd whose network died).
func testWorker(t *testing.T, name, gwAddr string, cfg serve.Config) (*serve.Server, context.CancelFunc) {
	t.Helper()
	return testWorkerBeat(t, name, gwAddr, cfg, 50*time.Millisecond)
}

// testWorkerBeat is testWorker with the given heartbeat interval.
func testWorkerBeat(t *testing.T, name, gwAddr string, cfg serve.Config, beat time.Duration) (*serve.Server, context.CancelFunc) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 64
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = -1
	}
	srv := serve.New(cfg)
	wk, err := NewWorker(srv, WorkerConfig{
		Name:      name,
		Gateway:   gwAddr,
		Heartbeat: beat,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go wk.Run(ctx)
	t.Cleanup(func() {
		cancel()
		sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer scancel()
		srv.Shutdown(sctx)
	})
	return srv, cancel
}

type workersReply struct {
	Workers []struct {
		Name     string `json:"name"`
		Depth    int    `json:"depth"`
		Assigned int    `json:"assigned"`
	} `json:"workers"`
}

func getWorkers(t *testing.T, base string) workersReply {
	t.Helper()
	resp, err := http.Get(base + "/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out workersReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitRegistered(t *testing.T, base string, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d workers registered", n), func() bool {
		return len(getWorkers(t, base).Workers) == n
	})
}

func submitWait(t *testing.T, base, spec string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(base+"/jobs?wait=1", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

func metric(t *testing.T, base, path, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		Metrics []struct {
			Path  string  `json:"path"`
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	for _, m := range dump.Metrics {
		if m.Path == path && m.Name == name {
			return m.Value
		}
	}
	return 0
}

// TestFleetByteIdenticalToSingleDaemon: the gateway path must return
// exactly the bytes a lone daemon returns for the same specs.
func TestFleetByteIdenticalToSingleDaemon(t *testing.T) {
	_, ts, ln := testGateway(t, GatewayConfig{})
	testWorker(t, "w1", ln.Addr().String(), serve.Config{})
	testWorker(t, "w2", ln.Addr().String(), serve.Config{})
	waitRegistered(t, ts.URL, 2)

	specs := []string{
		`{"kind":"fleettest","messages":1}`,
		`{"kind":"fleettest","messages":2}`,
		`{"kind":"fleettest","messages":3}`,
		`{"kind":"fleettest","messages":4}`,
	}
	fleetBodies := make([][]byte, len(specs))
	for i, spec := range specs {
		code, body, _ := submitWait(t, ts.URL, spec)
		if code != http.StatusOK {
			t.Fatalf("spec %d: status %d: %s", i, code, body)
		}
		fleetBodies[i] = body
	}

	// Reference: the same specs through a plain serve.Server.
	ref := serve.New(serve.Config{Workers: 2, QueueDepth: 16, CacheSize: 64, JobTimeout: -1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		ref.Shutdown(ctx)
	}()
	for i, raw := range specs {
		spec, err := serve.ParseSpec([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		j, err := ref.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		st, body := j.Snapshot()
		if st.Error != "" {
			t.Fatalf("reference run failed: %s", st.Error)
		}
		if !bytes.Equal(fleetBodies[i], body) {
			t.Errorf("spec %d: fleet body %q != single-daemon body %q", i, fleetBodies[i], body)
		}
	}
}

// TestFailoverDeterminism is the fleet's central promise: kill a worker
// after it has accepted jobs, and the completed result set is still
// byte-identical to a single-daemon run — zero jobs lost.
func TestFailoverDeterminism(t *testing.T) {
	_, ts, ln := testGateway(t, GatewayConfig{})
	_, cancel1 := testWorker(t, "w1", ln.Addr().String(), serve.Config{Workers: 4})
	testWorker(t, "w2", ln.Addr().String(), serve.Config{Workers: 4})
	waitRegistered(t, ts.URL, 2)

	const n = 8
	seeds := make([]int64, n)
	specs := make([]string, n)
	for i := range seeds {
		seeds[i] = nextSeed()
		specs[i] = fmt.Sprintf(`{"kind":"fleettest","seed":%d,"messages":%d}`, seeds[i], i)
	}

	type outcome struct {
		code int
		body []byte
	}
	results := make([]outcome, n)
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec string) {
			defer wg.Done()
			code, body, _ := submitWait(t, ts.URL, spec)
			results[i] = outcome{code, body}
		}(i, spec)
	}

	// Wait until every job is dispatched and parked on a gate somewhere.
	waitFor(t, "all jobs assigned", func() bool {
		total := 0
		for _, w := range getWorkers(t, ts.URL).Workers {
			total += w.Assigned
		}
		return total == n
	})

	// Kill w1's fleet session. The gateway sees the connection die and
	// must reassign w1's jobs to w2 — while they are still gated.
	cancel1()
	waitFor(t, "w1 reaped", func() bool {
		ws := getWorkers(t, ts.URL).Workers
		return len(ws) == 1 && ws[0].Name == "w2"
	})
	waitFor(t, "orphans reassigned to w2", func() bool {
		ws := getWorkers(t, ts.URL).Workers
		return len(ws) == 1 && ws[0].Assigned == n
	})

	for _, s := range seeds {
		openGate(s)
	}
	wg.Wait()

	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("job %d lost in failover: status %d: %s", i, r.code, r.body)
		}
	}
	if got := metric(t, ts.URL, "fleet/failover", "resubmitted"); got == 0 {
		t.Error("failover happened but fleet/failover resubmitted == 0")
	}
	if got := metric(t, ts.URL, "fleet/failover", "worker_deaths"); got == 0 {
		t.Error("worker died but fleet/failover worker_deaths == 0")
	}

	// Byte identity: same specs through a lone daemon (gates already
	// open, so the reference runs straight through).
	ref := serve.New(serve.Config{Workers: 4, QueueDepth: 16, CacheSize: 64, JobTimeout: -1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		ref.Shutdown(ctx)
	}()
	for i, raw := range specs {
		spec, err := serve.ParseSpec([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		j, err := ref.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		_, body := j.Snapshot()
		if !bytes.Equal(results[i].body, body) {
			t.Errorf("job %d: failover body %q != single-daemon body %q", i, results[i].body, body)
		}
	}
}

// TestWorkerCacheAffinity: a cold spec runs on its rendezvous owner,
// and its repeat is answered at the gateway's front door with the same
// bytes.
func TestWorkerCacheAffinity(t *testing.T) {
	_, ts, ln := testGateway(t, GatewayConfig{})
	testWorker(t, "w1", ln.Addr().String(), serve.Config{})
	testWorker(t, "w2", ln.Addr().String(), serve.Config{})
	waitRegistered(t, ts.URL, 2)

	spec := `{"kind":"fleettest","messages":7}`
	parsed, err := serve.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	code, first, h1 := submitWait(t, ts.URL, spec)
	if code != http.StatusOK {
		t.Fatalf("first run: status %d: %s", code, first)
	}
	if h1.Get("X-Cache") != "miss" {
		t.Fatalf("first run should miss, got X-Cache=%q", h1.Get("X-Cache"))
	}
	if got, want := h1.Get("X-Worker"), RankOwners(parsed.Hash(), []string{"w1", "w2"})[0]; got != want {
		t.Errorf("cold run on %q, want its rendezvous owner %q", got, want)
	}
	code, second, h2 := submitWait(t, ts.URL, spec)
	if code != http.StatusOK {
		t.Fatalf("second run: status %d: %s", code, second)
	}
	if h2.Get("X-Cache") != "hit" {
		t.Errorf("repeat spec should hit the cache, got X-Cache=%q", h2.Get("X-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached body differs: %q vs %q", first, second)
	}
}

// TestSaturationRouteAround: a worker whose queue is full must be
// skipped in rendezvous order — clients never see its 429 while
// another worker has room.
func TestSaturationRouteAround(t *testing.T) {
	_, ts, ln := testGateway(t, GatewayConfig{})
	srv1, _ := testWorker(t, "w1", ln.Addr().String(), serve.Config{Workers: 1, QueueDepth: 1})
	testWorker(t, "w2", ln.Addr().String(), serve.Config{Workers: 2, QueueDepth: 16})
	waitRegistered(t, ts.URL, 2)

	// Saturate w1 outside the gateway: one gated job running, one queued
	// — its heartbeat now reports depth == capacity.
	hold1, hold2 := nextSeed(), nextSeed()
	for _, s := range []int64{hold1, hold2} {
		spec, err := serve.ParseSpec([]byte(fmt.Sprintf(`{"kind":"fleettest","seed":%d}`, s)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv1.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	defer openGate(hold1)
	defer openGate(hold2)
	waitFor(t, "w1 saturated in gateway view", func() bool {
		for _, w := range getWorkers(t, ts.URL).Workers {
			if w.Name == "w1" && w.Depth >= 1 {
				return true
			}
		}
		return false
	})

	// Every submission must land on w2, whatever its rendezvous owner.
	for i := 0; i < 6; i++ {
		code, body, h := submitWait(t, ts.URL,
			fmt.Sprintf(`{"kind":"fleettest","messages":%d}`, 100+i))
		if code != http.StatusOK {
			t.Fatalf("job %d: fleet had capacity on w2 but returned %d: %s", i, code, body)
		}
		if got := h.Get("X-Worker"); got != "w2" {
			t.Errorf("job %d: routed to %q, want w2 (w1 is saturated)", i, got)
		}
	}
}

// TestAllSaturated429: only when every worker is saturated does the
// client see backpressure, with an aggregate Retry-After.
func TestAllSaturated429(t *testing.T) {
	_, ts, ln := testGateway(t, GatewayConfig{})
	srv1, _ := testWorker(t, "w1", ln.Addr().String(), serve.Config{Workers: 1, QueueDepth: 1})
	waitRegistered(t, ts.URL, 1)

	hold1, hold2 := nextSeed(), nextSeed()
	for _, s := range []int64{hold1, hold2} {
		spec, err := serve.ParseSpec([]byte(fmt.Sprintf(`{"kind":"fleettest","seed":%d}`, s)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv1.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	defer openGate(hold1)
	defer openGate(hold2)
	waitFor(t, "w1 saturated in gateway view", func() bool {
		ws := getWorkers(t, ts.URL).Workers
		return len(ws) == 1 && ws[0].Depth >= 1
	})

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"fleettest","messages":55}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestResultUndoesDispatchBump: a job's result must return the depth
// its dispatch optimistically added, so a stream of short sequential
// jobs inside one heartbeat interval is never refused as saturated.
func TestResultUndoesDispatchBump(t *testing.T) {
	_, ts, ln := testGateway(t, GatewayConfig{DeadAfter: time.Minute})
	testWorkerBeat(t, "w1", ln.Addr().String(),
		serve.Config{Workers: 1, QueueDepth: 2}, time.Hour)
	waitRegistered(t, ts.URL, 1)

	for i := 0; i < 6; i++ {
		code, body, _ := submitWait(t, ts.URL,
			fmt.Sprintf(`{"kind":"fleettest","messages":%d}`, 200+i))
		if code != http.StatusOK {
			t.Fatalf("job %d of sequential stream on an idle worker: status %d: %s", i, code, body)
		}
	}
	if d := getWorkers(t, ts.URL).Workers[0].Depth; d != 0 {
		t.Errorf("gateway depth after the stream drained = %d, want 0", d)
	}
}

// TestNoWorkers503: an empty fleet refuses admission outright.
func TestNoWorkers503(t *testing.T) {
	_, ts, _ := testGateway(t, GatewayConfig{})
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"fleettest"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestStreamAcrossFailover: a watcher attached before a failover sees
// one continuous NDJSON log ending in exactly one terminal event.
func TestStreamAcrossFailover(t *testing.T) {
	_, ts, ln := testGateway(t, GatewayConfig{})
	_, cancel1 := testWorker(t, "w1", ln.Addr().String(), serve.Config{})
	waitRegistered(t, ts.URL, 1)

	seed := nextSeed()
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"kind":"fleettest","seed":%d}`, seed)))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	waitFor(t, "job assigned to w1", func() bool {
		ws := getWorkers(t, ts.URL).Workers
		return len(ws) == 1 && ws[0].Assigned == 1
	})

	stream, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	// Kill w1; bring up w2 to take the orphan; then release the job.
	cancel1()
	testWorker(t, "w2", ln.Addr().String(), serve.Config{})
	waitFor(t, "w2 owns the orphan", func() bool {
		ws := getWorkers(t, ts.URL).Workers
		return len(ws) == 1 && ws[0].Name == "w2" && ws[0].Assigned == 1
	})
	openGate(seed)

	dec := json.NewDecoder(stream.Body)
	terminals := 0
	for {
		var e serve.Event
		if err := dec.Decode(&e); err != nil {
			break
		}
		if e.Terminal() {
			terminals++
			if e.Event != "done" {
				t.Fatalf("job ended %q, want done", e.Event)
			}
		}
	}
	if terminals != 1 {
		t.Fatalf("stream carried %d terminal events, want exactly 1", terminals)
	}
}
