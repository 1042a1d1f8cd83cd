package fleet

// Wire-level gateway tests: a scripted fake worker speaks the binary
// protocol directly, so shed races, heartbeat silence, and duplicate
// results can be staged deterministically — timings no real worker
// would reproduce on demand.

import (
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet/wire"
)

type fakeWorker struct {
	t       *testing.T
	conn    net.Conn
	sbuf    wire.Writer
	scratch []byte
}

// dialFake connects, registers, and consumes the ack.
func dialFake(t *testing.T, addr, name string, capacity uint32) *fakeWorker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fw := &fakeWorker{t: t, conn: conn}
	t.Cleanup(func() { conn.Close() })
	fw.send(&wire.Register{Name: name, Capacity: capacity, Workers: capacity})
	if _, ok := fw.read().(*wire.Ack); !ok {
		t.Fatal("no ack after register")
	}
	return fw
}

func (f *fakeWorker) send(m wire.Msg) {
	f.t.Helper()
	if err := wire.WriteMsg(f.conn, &f.sbuf, m); err != nil {
		f.t.Fatalf("fake worker send: %v", err)
	}
}

func (f *fakeWorker) read() wire.Msg {
	f.t.Helper()
	f.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, scratch, err := wire.ReadMsg(f.conn, f.scratch)
	if err != nil {
		f.t.Fatalf("fake worker read: %v", err)
	}
	f.scratch = scratch
	return m
}

func (f *fakeWorker) expectSubmit() *wire.Submit {
	f.t.Helper()
	m, ok := f.read().(*wire.Submit)
	if !ok {
		f.t.Fatalf("expected submit frame, got %v", m)
	}
	return m
}

// heartbeatUntilSubmit keeps the worker alive until a submit arrives,
// polling with short read deadlines, so a loaded host cannot reap it
// before the job is dispatched.
func (f *fakeWorker) heartbeatUntilSubmit() *wire.Submit {
	f.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		f.send(&wire.Heartbeat{Capacity: 8})
		f.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		m, scratch, err := wire.ReadMsg(f.conn, f.scratch)
		if err != nil {
			continue // timeout: heartbeat again
		}
		f.scratch = scratch
		if sub, ok := m.(*wire.Submit); ok {
			return sub
		}
	}
	f.t.Fatal("no submit arrived")
	return nil
}

// TestShedReroute: a worker that sheds an admitted job triggers a
// reroute to the next candidate, never a client-visible 429.
func TestShedReroute(t *testing.T) {
	_, ts, ln := testGateway(t, GatewayConfig{})
	fw1 := dialFake(t, ln.Addr().String(), "shed-w1", 8)
	fw2 := dialFake(t, ln.Addr().String(), "shed-w2", 8)
	waitRegistered(t, ts.URL, 2)

	type reply struct {
		code int
		body []byte
	}
	done := make(chan reply, 1)
	go func() {
		code, body, _ := submitWait(t, ts.URL, `{"kind":"fleettest","messages":9}`)
		done <- reply{code, body}
	}()

	// Whichever worker rendezvous picked sheds; the other must receive
	// the reroute and completes it.
	first, second, firstSub := readSubmitFromEither(t, fw1, fw2)
	first.send(&wire.Shed{Job: firstSub.Job, RetryAfter: 3, Depth: 0})
	reroute := second.expectSubmit()
	if reroute.Job != firstSub.Job || reroute.Hash != firstSub.Hash {
		t.Fatalf("reroute changed identity: %+v vs %+v", reroute, firstSub)
	}
	second.send(&wire.Result{Job: reroute.Job, Status: wire.StatusDone, Body: []byte(`{"ok":true}`)})

	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("shed surfaced to the client: status %d: %s", r.code, r.body)
	}
	if got := metric(t, ts.URL, "fleet/failover", "routed_around"); got != 1 {
		t.Errorf("routed_around = %v, want 1", got)
	}
	if got := metric(t, ts.URL, "fleet/failover", "sheds_seen"); got != 1 {
		t.Errorf("sheds_seen = %v, want 1", got)
	}
}

// TestShedByEveryWorkerNotStranded: a job shed by the only worker is
// parked, and the worker's next heartbeat with room gets it back — the
// shed does not bar that worker for good.
func TestShedByEveryWorkerNotStranded(t *testing.T) {
	_, ts, ln := testGateway(t, GatewayConfig{})
	fw := dialFake(t, ln.Addr().String(), "strand-w1", 8)
	waitRegistered(t, ts.URL, 1)

	// Submit without waiting, so a stranded job cannot hang cleanup.
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"fleettest","messages":19}`))
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	sub := fw.expectSubmit()
	fw.send(&wire.Shed{Job: sub.Job, RetryAfter: 1, Depth: 8})
	fw.send(&wire.Heartbeat{Depth: 0, Capacity: 8})
	re := fw.expectSubmit()
	if re.Job != sub.Job || re.Job != accepted.ID {
		t.Fatalf("resubmitted job %q, want %q (accepted %q)", re.Job, sub.Job, accepted.ID)
	}
	fw.send(&wire.Result{Job: re.Job, Status: wire.StatusDone, Body: []byte(`{"ok":1}`)})

	waitFor(t, "job done", func() bool {
		resp, err := http.Get(ts.URL + "/jobs/" + accepted.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	if got := metric(t, ts.URL, "fleet/failover", "parked_total"); got != 1 {
		t.Errorf("parked_total = %v, want 1", got)
	}
}

// readSubmitFromEither returns the fake worker rendezvous chose (and
// the submit frame it received) plus the one it passed over. It polls
// the two connections in turn with short deadlines instead of spawning
// readers, so no goroutine is left racing later reads on these conns;
// frames are written in one syscall over loopback, so a deadline never
// splits one.
func readSubmitFromEither(t *testing.T, a, b *fakeWorker) (first, second *fakeWorker, sub *wire.Submit) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, pair := range [2][2]*fakeWorker{{a, b}, {b, a}} {
			fw := pair[0]
			fw.conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			m, scratch, err := wire.ReadMsg(fw.conn, fw.scratch)
			if err != nil {
				continue // timeout: try the other conn
			}
			fw.scratch = scratch
			if sub, ok := m.(*wire.Submit); ok {
				return pair[0], pair[1], sub
			}
		}
	}
	t.Fatal("no worker received the submit")
	return nil, nil, nil
}

// TestHeartbeatTimeoutReap: a silent worker is declared dead after
// DeadAfter and its job fails over to the next worker to register.
func TestHeartbeatTimeoutReap(t *testing.T) {
	_, ts, ln := testGateway(t, GatewayConfig{DeadAfter: 300 * time.Millisecond})
	fw1 := dialFake(t, ln.Addr().String(), "reap-w1", 8)
	waitRegistered(t, ts.URL, 1)

	done := make(chan int, 1)
	go func() {
		code, _, _ := submitWait(t, ts.URL, `{"kind":"fleettest","messages":11}`)
		done <- code
	}()
	sub := fw1.heartbeatUntilSubmit()
	// fw1 now goes silent: no heartbeats, no result. The read deadline
	// must reap it and park the job (the fleet is empty).
	waitFor(t, "silent worker reaped and its job parked", func() bool {
		return len(getWorkers(t, ts.URL).Workers) == 0 &&
			metric(t, ts.URL, "fleet/failover", "parked_total") == 1
	})

	// A replacement registers and must inherit the parked job.
	fw2 := dialFake(t, ln.Addr().String(), "reap-w2", 8)
	re := fw2.expectSubmit()
	if re.Job != sub.Job {
		t.Fatalf("replacement got job %q, want parked %q", re.Job, sub.Job)
	}
	fw2.send(&wire.Result{Job: re.Job, Status: wire.StatusDone, Body: []byte(`{"ok":1}`)})
	if code := <-done; code != http.StatusOK {
		t.Fatalf("job lost across reap: status %d", code)
	}
	if got := metric(t, ts.URL, "fleet/failover", "worker_deaths"); got != 1 {
		t.Errorf("worker_deaths = %v, want 1", got)
	}
}

// TestDuplicateResultIgnored: a second result for a finished job is
// counted and dropped, not re-applied.
func TestDuplicateResultIgnored(t *testing.T) {
	_, ts, ln := testGateway(t, GatewayConfig{})
	fw := dialFake(t, ln.Addr().String(), "dup-w1", 8)
	waitRegistered(t, ts.URL, 1)

	done := make(chan []byte, 1)
	go func() {
		_, body, _ := submitWait(t, ts.URL, `{"kind":"fleettest","messages":13}`)
		done <- body
	}()
	sub := fw.expectSubmit()
	fw.send(&wire.Result{Job: sub.Job, Status: wire.StatusDone, Body: []byte(`{"v":1}`)})
	first := <-done
	fw.send(&wire.Result{Job: sub.Job, Status: wire.StatusDone, Body: []byte(`{"v":2}`)})
	fw.send(&wire.Heartbeat{}) // fence: ensure the duplicate was processed

	waitFor(t, "duplicate counted", func() bool {
		return metric(t, ts.URL, "fleet/failover", "duplicate_results") == 1
	})
	resp, err := http.Get(ts.URL + "/jobs/" + sub.Job + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		V int `json:"v"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.V != 1 {
		t.Fatalf("duplicate result overwrote the original: v=%d", v.V)
	}
	_ = first
}

// TestDeterministicFailureNotRetried: a StatusFailed result is final —
// no redispatch, client sees 500.
func TestDeterministicFailureNotRetried(t *testing.T) {
	_, ts, ln := testGateway(t, GatewayConfig{})
	fw1 := dialFake(t, ln.Addr().String(), "fail-w1", 8)
	fw2 := dialFake(t, ln.Addr().String(), "fail-w2", 8)
	waitRegistered(t, ts.URL, 2)

	done := make(chan int, 1)
	go func() {
		code, _, _ := submitWait(t, ts.URL, `{"kind":"fleettest","messages":17}`)
		done <- code
	}()
	first, second, sub := readSubmitFromEither(t, fw1, fw2)
	first.send(&wire.Result{Job: sub.Job, Status: wire.StatusFailed, Error: "synthetic failure"})
	if code := <-done; code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 for deterministic failure", code)
	}
	// The healthy second worker must NOT receive a retry.
	second.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if m, _, err := wire.ReadMsg(second.conn, nil); err == nil {
		t.Fatalf("failed job was retried: second worker got %v", m)
	}
	if got := metric(t, ts.URL, "fleet/failover", "resubmitted"); got != 0 {
		t.Errorf("resubmitted = %v, want 0", got)
	}
}

// TestGatewayCacheServesSaturatedRepeat: a repeat of a completed spec
// whose owning worker is saturated is answered byte-identically from
// the gateway's own result cache — no submit frame reaches the worker,
// no 429 reaches the client, and the hit is counted in fleet stats.
func TestGatewayCacheServesSaturatedRepeat(t *testing.T) {
	_, ts, ln := testGateway(t, GatewayConfig{})
	fw := dialFake(t, ln.Addr().String(), "cache-w1", 1)
	waitRegistered(t, ts.URL, 1)
	spec := `{"kind":"fleettest","messages":23}`

	done := make(chan []byte, 1)
	go func() {
		_, body, _ := submitWait(t, ts.URL, spec)
		done <- body
	}()
	sub := fw.expectSubmit()
	fw.send(&wire.Result{Job: sub.Job, Status: wire.StatusDone, Body: []byte(`{"r":42}`)})
	first := <-done

	// The worker reports itself saturated; the optimistic dispatch bump
	// is already at capacity, but the heartbeat makes it explicit.
	fw.send(&wire.Heartbeat{Depth: 1, InFlight: 1, Capacity: 1})
	waitFor(t, "saturation heartbeat applied", func() bool {
		ws := getWorkers(t, ts.URL).Workers
		return len(ws) == 1 && ws[0].Depth >= 1
	})

	code, second, hdr := submitWait(t, ts.URL, spec)
	if code != http.StatusOK {
		t.Fatalf("repeat against saturated fleet: status %d: %s", code, second)
	}
	if string(first) != string(second) {
		t.Fatalf("gateway cache not byte-identical:\n%s\nvs\n%s", first, second)
	}
	if hc := hdr.Get("X-Cache"); hc != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", hc)
	}
	// The saturated worker must never have seen a second submit frame.
	fw.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if m, _, err := wire.ReadMsg(fw.conn, nil); err == nil {
		t.Fatalf("saturated worker received %v for a cached repeat", m)
	}
	if got := metric(t, ts.URL, "fleet/jobs", "gateway_cache_hits"); got != 1 {
		t.Errorf("gateway_cache_hits = %v, want 1", got)
	}
	if got := metric(t, ts.URL, "fleet/jobs", "completed"); got != 2 {
		t.Errorf("completed = %v, want 2 (cached repeat still completes a job)", got)
	}
}

// TestDrainingRefusesSubmissions: after BeginDrain, submissions get
// 503 while registered workers stay connected.
func TestDrainingRefusesSubmissions(t *testing.T) {
	gw, ts, ln := testGateway(t, GatewayConfig{})
	dialFake(t, ln.Addr().String(), "drain-w1", 8)
	waitRegistered(t, ts.URL, 1)
	gw.BeginDrain()
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"fleettest"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while draining", resp.StatusCode)
	}
}

// TestReregistrationReplacesWorker: a worker reconnecting under its
// old name (crash + fast restart) replaces the stale session and its
// orphans fail over.
func TestReregistrationReplacesWorker(t *testing.T) {
	_, ts, ln := testGateway(t, GatewayConfig{})
	fw1 := dialFake(t, ln.Addr().String(), "re-w1", 8)
	waitRegistered(t, ts.URL, 1)

	done := make(chan int, 1)
	go func() {
		code, _, _ := submitWait(t, ts.URL, `{"kind":"fleettest","messages":19}`)
		done <- code
	}()
	sub := fw1.expectSubmit()

	// Same name, new connection: the restarted daemon. It must get the
	// stale session's job back.
	fw1b := dialFake(t, ln.Addr().String(), "re-w1", 8)
	re := fw1b.expectSubmit()
	if re.Job != sub.Job {
		t.Fatalf("restart got job %q, want orphan %q", re.Job, sub.Job)
	}
	fw1b.send(&wire.Result{Job: re.Job, Status: wire.StatusDone, Body: []byte(`{"ok":2}`)})
	if code := <-done; code != http.StatusOK {
		t.Fatalf("job lost across re-registration: status %d", code)
	}
	ws := getWorkers(t, ts.URL).Workers
	if len(ws) != 1 || ws[0].Name != "re-w1" {
		t.Fatalf("fleet roster wrong after re-registration: %+v", ws)
	}
}
