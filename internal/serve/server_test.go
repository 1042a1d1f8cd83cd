package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/stats"
)

// Synthetic job kinds with test-controlled timing. Each job selects its
// release gate by spec.Seed, so concurrent tests stay independent.
var (
	gateMu sync.Mutex
	gates  = map[int64]chan struct{}{}
	// seedCounter hands out fresh gate seeds so repeated runs (-count>1)
	// never see a gate an earlier iteration already closed.
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

func TestMain(m *testing.M) {
	// "block" parks until its gate opens; "progressive" additionally
	// emits spec.Messages progress events after release; "fail" errors.
	testKinds["block"] = func(c *exp.Ctx, spec Spec, p Progress) ([]byte, error) {
		select {
		case <-gate(spec.Seed):
		case <-c.Context().Done():
			return nil, c.Context().Err()
		}
		return []byte(fmt.Sprintf("{\"blocked\":%d}\n", spec.Seed)), nil
	}
	testKinds["progressive"] = func(c *exp.Ctx, spec Spec, p Progress) ([]byte, error) {
		select {
		case <-gate(spec.Seed):
		case <-c.Context().Done():
			return nil, c.Context().Err()
		}
		for i := 1; i <= spec.Messages; i++ {
			p(i, spec.Messages, fmt.Sprintf("step[%d]", i))
		}
		return []byte("{\"ok\":true}\n"), nil
	}
	testKinds["fail"] = func(c *exp.Ctx, spec Spec, p Progress) ([]byte, error) {
		return nil, errors.New("synthetic failure")
	}
	os.Exit(m.Run())
}

// testServer couples a Server to an httptest front end with cleanup.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	return srv, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func jobID(t *testing.T, data []byte) string {
	t.Helper()
	var r struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("bad submit response %s: %v", data, err)
	}
	return r.ID
}

func waitStatus(t *testing.T, base, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, data := get(t, base+"/jobs/"+id)
		var r struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(data, &r); err == nil && r.Status == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached status %q", id, want)
}

// TestCacheHitByteIdentity is the tentpole contract: submitting the
// same spec twice returns byte-identical bodies, the second served from
// the cache with serve/cache hits = 1.
func TestCacheHitByteIdentity(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	spec := `{"kind":"lint","test":"badcdc"}`

	r1, body1 := post(t, ts.URL+"/jobs?wait=1", spec)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %s %s", r1.Status, body1)
	}
	if hc := r1.Header.Get("X-Cache"); hc != "miss" {
		t.Fatalf("first submit X-Cache = %q, want miss", hc)
	}
	r2, body2 := post(t, ts.URL+"/jobs?wait=1", spec)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("second submit: %s %s", r2.Status, body2)
	}
	if hc := r2.Header.Get("X-Cache"); hc != "hit" {
		t.Fatalf("second submit X-Cache = %q, want hit", hc)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached result not byte-identical:\n%s\nvs\n%s", body1, body2)
	}
	// The result is real: badcdc must carry a CDC-1 error diagnostic.
	if !bytes.Contains(body1, []byte("CDC-1")) {
		t.Fatalf("lint result missing CDC-1 diagnostic: %s", body1)
	}

	_, mdata := get(t, ts.URL+"/metrics")
	ms, err := stats.ParseJSON(mdata)
	if err != nil {
		t.Fatalf("bad /metrics payload: %v", err)
	}
	if hits := stats.Total(ms, "serve/cache", "hits"); hits != 1 {
		t.Fatalf("serve/cache hits = %v, want 1", hits)
	}
	if sub := stats.Total(ms, "serve/jobs", "submitted"); sub != 2 {
		t.Fatalf("serve/jobs submitted = %v, want 2", sub)
	}
}

// TestLoadShed429: with a one-deep queue and a single busy worker, the
// next submission is shed with 429 and a Retry-After estimate.
func TestLoadShed429(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	s1, s2, s3 := nextSeed(), nextSeed(), nextSeed()
	defer close(gate(s1))
	defer close(gate(s2))

	// Occupy the worker, then fill the queue.
	rA, dataA := post(t, ts.URL+"/jobs", fmt.Sprintf(`{"kind":"block","seed":%d}`, s1))
	if rA.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %s %s", rA.Status, dataA)
	}
	waitStatus(t, ts.URL, jobID(t, dataA), "running")
	rB, dataB := post(t, ts.URL+"/jobs", fmt.Sprintf(`{"kind":"block","seed":%d}`, s2))
	if rB.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %s %s", rB.Status, dataB)
	}

	rC, dataC := post(t, ts.URL+"/jobs", fmt.Sprintf(`{"kind":"block","seed":%d}`, s3))
	if rC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit C: %s %s, want 429", rC.Status, dataC)
	}
	if ra := rC.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := srv.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	// A shed submission leaves no pollable record.
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	_, ldata := get(t, ts.URL+"/jobs")
	if err := json.Unmarshal(ldata, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("job list has %d entries, want 2: %s", len(list.Jobs), ldata)
	}
}

// TestStreamedProgressOrdering: a watcher sees the full event log —
// queued, start, every progress event in emission order, done — with
// contiguous job-local sequence numbers.
func TestStreamedProgressOrdering(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	seed := nextSeed()
	rS, dataS := post(t, ts.URL+"/jobs", fmt.Sprintf(`{"kind":"progressive","seed":%d,"messages":3}`, seed))
	if rS.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s %s", rS.Status, dataS)
	}
	id := jobID(t, dataS)

	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	// The watcher is attached; let the job produce.
	close(gate(seed))

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"queued", "start", "progress", "progress", "progress", "done"}
	if len(events) != len(want) {
		t.Fatalf("got %d events %+v, want %d", len(events), events, len(want))
	}
	for i, e := range events {
		if e.Event != want[i] {
			t.Fatalf("event[%d] = %q, want %q (%+v)", i, e.Event, want[i], events)
		}
		if e.Seq != i {
			t.Fatalf("event[%d] has seq %d: ordering broken", i, e.Seq)
		}
	}
	for i := 0; i < 3; i++ {
		e := events[2+i]
		if e.Done != i+1 || e.Total != 3 || e.Label != fmt.Sprintf("step[%d]", i+1) {
			t.Fatalf("progress[%d] = %+v", i, e)
		}
	}

	// A late watcher replays the identical, already-closed log.
	_, rdata := get(t, ts.URL+"/jobs/"+id+"/stream")
	lines := bytes.Split(bytes.TrimSpace(rdata), []byte("\n"))
	if len(lines) != len(want) {
		t.Fatalf("replay has %d lines, want %d: %s", len(lines), len(want), rdata)
	}
}

// stalledWriter is a stream client that reads nothing until released:
// its first Write reports on writing, and every Write blocks until
// release closes.
type stalledWriter struct {
	*httptest.ResponseRecorder
	once             sync.Once
	writing, release chan struct{}
}

func (w *stalledWriter) Write(b []byte) (int, error) {
	w.once.Do(func() { close(w.writing) })
	<-w.release
	return w.ResponseRecorder.Write(b)
}

// TestSlowStreamGetsWholeLog: a watcher that reads nothing while the
// job publishes hundreds of events still gets the whole log, ending in
// done, once it reads again.
func TestSlowStreamGetsWholeLog(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 1})
	h := srv.Handler()
	seed := nextSeed()
	const n = 300
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs",
		strings.NewReader(fmt.Sprintf(`{"kind":"progressive","seed":%d,"messages":%d}`, seed, n))))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	id := jobID(t, rec.Body.Bytes())

	w := &stalledWriter{ResponseRecorder: httptest.NewRecorder(),
		writing: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(w, httptest.NewRequest("GET", "/jobs/"+id+"/stream", nil))
	}()
	<-w.writing
	close(gate(seed))
	j, _ := srv.lookup(id)
	<-j.done
	close(w.release)
	<-served

	lines := bytes.Split(bytes.TrimSpace(w.Body.Bytes()), []byte("\n"))
	if len(lines) != n+3 {
		t.Fatalf("stream has %d lines, want %d (queued, start, %d progress, done)", len(lines), n+3, n)
	}
	var e Event
	for i, line := range lines {
		e = Event{}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if e.Seq != i {
			t.Fatalf("line %d has seq %d", i, e.Seq)
		}
	}
	if e.Event != "done" {
		t.Fatalf("stream ends with %q, want done", e.Event)
	}
}

// TestGracefulDrainNoGoroutineLeak: drain with in-flight and queued work
// cancels what cannot finish and returns the process to its pre-server
// goroutine count.
func TestGracefulDrainNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := New(Config{Workers: 1, QueueDepth: 4, Logf: t.Logf})
	ts := httptest.NewServer(srv.Handler())
	s1, s2, s3 := nextSeed(), nextSeed(), nextSeed()
	_, dataA := post(t, ts.URL+"/jobs", fmt.Sprintf(`{"kind":"block","seed":%d}`, s1))
	idA := jobID(t, dataA)
	waitStatus(t, ts.URL, idA, "running")
	_, dataB := post(t, ts.URL+"/jobs", fmt.Sprintf(`{"kind":"block","seed":%d}`, s2))
	idB := jobID(t, dataB)

	// Drain with a budget too short for the parked jobs: both must be
	// canceled, the queued one without ever running.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded (cancel path)", err)
	}
	cancel()
	for _, id := range []string{idA, idB} {
		_, data := get(t, ts.URL+"/jobs/"+id)
		var r struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(data, &r); err != nil || r.Status != "canceled" {
			t.Fatalf("job %s status = %s after drain", id, data)
		}
	}
	// New submissions are refused while (and after) draining.
	rNew, _ := post(t, ts.URL+"/jobs", fmt.Sprintf(`{"kind":"block","seed":%d}`, s3))
	if rNew.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %s, want 503", rNew.Status)
	}
	rH, _ := get(t, ts.URL+"/healthz")
	if rH.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %s, want 503", rH.Status)
	}

	// Open the canceled jobs' gates and tear down the HTTP front end; the
	// goroutine count must settle back to where it started.
	close(gate(s1))
	close(gate(s2))
	ts.CloseClientConnections()
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked after drain: %d -> %d\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

// TestCleanDrainFinishesBacklog: with time available, drain lets queued
// jobs run to completion rather than canceling them.
func TestCleanDrainFinishesBacklog(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4, Logf: t.Logf})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	s1, s2 := nextSeed(), nextSeed()
	_, dataA := post(t, ts.URL+"/jobs", fmt.Sprintf(`{"kind":"block","seed":%d}`, s1))
	idA := jobID(t, dataA)
	waitStatus(t, ts.URL, idA, "running")
	_, dataB := post(t, ts.URL+"/jobs", fmt.Sprintf(`{"kind":"block","seed":%d}`, s2))
	idB := jobID(t, dataB)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	close(gate(s1))
	close(gate(s2))
	if err := <-done; err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	for _, id := range []string{idA, idB} {
		_, data := get(t, ts.URL+"/jobs/"+id+"/result")
		if !bytes.Contains(data, []byte("blocked")) {
			t.Fatalf("job %s result after clean drain: %s", id, data)
		}
	}
}

// TestFailedJobSurfaces: an adapter error becomes status "failed" and a
// 500 on the result endpoint, not a daemon crash.
func TestFailedJobSurfaces(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	r, data := post(t, ts.URL+"/jobs", fmt.Sprintf(`{"kind":"fail","seed":%d}`, nextSeed()))
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s %s", r.Status, data)
	}
	id := jobID(t, data)
	waitStatus(t, ts.URL, id, "failed")
	rr, rdata := get(t, ts.URL+"/jobs/"+id+"/result")
	if rr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed job result: %s %s", rr.Status, rdata)
	}
	if !bytes.Contains(rdata, []byte("synthetic failure")) {
		t.Fatalf("error detail lost: %s", rdata)
	}
}

// TestUnknownJob404 and bad specs.
func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	if r, _ := get(t, ts.URL+"/jobs/job-999"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %s", r.Status)
	}
	if r, _ := get(t, ts.URL+"/jobs/job-999/stream"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream: %s", r.Status)
	}
	if r, _ := post(t, ts.URL+"/jobs", `{"kind":"warp-core"}`); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind: %s", r.Status)
	}
}
