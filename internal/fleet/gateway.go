package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time" //detvet:ok fleet liveness is wall-clock by design (heartbeat deadlines)

	"repro/internal/fleet/wire"
	"repro/internal/serve"
	"repro/internal/stats"
)

// GatewayConfig sizes the gateway. Zero values take the defaults noted
// on each field.
type GatewayConfig struct {
	Name         string                           // fleet name sent in registration acks (default "socgw")
	DeadAfter    time.Duration                    // silence window before a worker is declared dead (default 5s)
	RetryEvery   time.Duration                    // parked-job redispatch tick (default 250ms)
	MaxRetries   int                              // failovers per job before it fails (default 5)
	CacheEntries int                              // gateway-side result cache entries (default 128)
	Logf         func(format string, args ...any) // optional logger
}

// Gateway fronts a fleet of socd workers: it owns the client-facing
// HTTP/NDJSON surface (the same API shape internal/serve exposes, so
// socctl works unchanged), shards submitted jobs across workers by
// rendezvous hash over the spec's content address, and carries the
// worker-facing side of the binary wire protocol — registration,
// heartbeats, submit/progress/result frames, failover on worker loss.
type Gateway struct {
	cfg GatewayConfig
	reg *stats.Registry
	mux *http.ServeMux

	mu       sync.Mutex
	workers  map[string]*remoteWorker
	jobs     map[string]*gwJob
	order    []string // job ids in submission order
	pending  []*gwJob // admitted jobs awaiting a dispatch slot
	seq      int
	draining bool

	wg       sync.WaitGroup // conn handlers + redispatch ticker
	stopTick chan struct{}

	// Gateway-side result cache: completed bodies keyed by the spec's
	// content address, FIFO-bounded. Results are deterministic functions
	// of the canonical spec, so a stored body is byte-identical to
	// whatever a worker would recompute — the gateway can answer a
	// repeat itself when the job's preferred owner has no room, instead
	// of queueing the round-trip or shedding a 429.
	cacheMu    sync.Mutex
	cacheBody  map[uint64][]byte
	cacheOrder []uint64

	// Counters read lock-free by stats sources and handlers.
	submitted, completed, failed, canceled atomic.Int64
	registered, deaths, resubmitted        atomic.Int64
	routedAround, shedsSeen, parked        atomic.Int64
	duplicateResults, workerCacheHits      atomic.Int64
	gatewayCacheHits                       atomic.Int64
	framesIn, framesOut                    atomic.Int64
	bytesIn, bytesOut                      atomic.Int64
}

// remoteWorker is one registered worker connection. Load fields mirror
// the latest heartbeat (optimistically bumped on dispatch so a burst
// between heartbeats cannot dogpile one worker, and unbumped when the
// job's result arrives before the next heartbeat); assigned tracks the
// jobs whose results this connection owes.
type remoteWorker struct {
	name string
	conn net.Conn

	smu  sync.Mutex // serializes frame writes
	sbuf wire.Writer

	// Guarded by Gateway.mu.
	depth, inFlight, capacity int
	loadEpoch                 uint64 // bumped whenever depth is reset from worker truth
	assigned                  map[string]*gwJob
	gone                      bool
}

// gwJob is one proxied job. All mutable fields are guarded by
// Gateway.mu; body bytes are written once at completion.
type gwJob struct {
	id        string
	kind      string
	hash      uint64
	specBytes []byte // canonical form, what Submit frames carry
	log       *serve.EventLog
	done      chan struct{}

	status  string // queued | running | done | failed | canceled
	owner   string // worker currently responsible, "" while parked
	retries int
	shedBy  map[string]bool // workers that refused this job
	// bumpEpoch is the owner's loadEpoch when dispatch bumped its depth.
	bumpEpoch uint64
	body      []byte
	errMsg    string
	cached    bool // worker served the body from its LRU
}

func (j *gwJob) terminal() bool {
	return j.status == "done" || j.status == "failed" || j.status == "canceled"
}

// NewGateway builds a gateway and starts its redispatch ticker. Serve
// workers with ServeWorkers, mount Handler on an http.Server, retire
// with Shutdown.
func NewGateway(cfg GatewayConfig) *Gateway {
	if cfg.Name == "" {
		cfg.Name = "socgw"
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 5 * time.Second
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 250 * time.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 128
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	g := &Gateway{
		cfg:       cfg,
		reg:       stats.New(),
		mux:       http.NewServeMux(),
		workers:   make(map[string]*remoteWorker),
		jobs:      make(map[string]*gwJob),
		cacheBody: make(map[uint64][]byte),
		stopTick:  make(chan struct{}),
	}
	g.registerStats()
	g.routes()
	g.wg.Add(1)
	go g.redispatchTicker()
	return g
}

// Metrics returns the gateway's registry so hosts can render or extend
// the fleet/* namespace.
func (g *Gateway) Metrics() *stats.Registry { return g.reg }

func (g *Gateway) registerStats() {
	g.reg.Source("fleet/workers", func(emit stats.Emit) {
		g.mu.Lock()
		live := len(g.workers)
		g.mu.Unlock()
		emit("deaths", float64(g.deaths.Load()))
		emit("live", float64(live))
		emit("registered_total", float64(g.registered.Load()))
	})
	g.reg.Source("fleet/jobs", func(emit stats.Emit) {
		g.mu.Lock()
		inFlight := 0
		for _, j := range g.jobs { //detvet:ok order-free count
			if !j.terminal() {
				inFlight++
			}
		}
		pending := len(g.pending)
		g.mu.Unlock()
		emit("canceled", float64(g.canceled.Load()))
		emit("completed", float64(g.completed.Load()))
		emit("failed", float64(g.failed.Load()))
		emit("gateway_cache_hits", float64(g.gatewayCacheHits.Load()))
		emit("in_flight", float64(inFlight))
		emit("parked", float64(pending))
		emit("submitted", float64(g.submitted.Load()))
		emit("worker_cache_hits", float64(g.workerCacheHits.Load()))
	})
	g.reg.Source("fleet/failover", func(emit stats.Emit) {
		emit("duplicate_results", float64(g.duplicateResults.Load()))
		emit("parked_total", float64(g.parked.Load()))
		emit("resubmitted", float64(g.resubmitted.Load()))
		emit("routed_around", float64(g.routedAround.Load()))
		emit("sheds_seen", float64(g.shedsSeen.Load()))
		emit("worker_deaths", float64(g.deaths.Load()))
	})
	g.reg.Source("fleet/wire", func(emit stats.Emit) {
		emit("bytes_in", float64(g.bytesIn.Load()))
		emit("bytes_out", float64(g.bytesOut.Load()))
		emit("frames_in", float64(g.framesIn.Load()))
		emit("frames_out", float64(g.framesOut.Load()))
	})
}

// ---- worker wire side ----

// ServeWorkers accepts worker connections on ln until the listener
// closes. Each connection must open with a Register frame; after the
// ack the gateway reads heartbeat/progress/result/shed frames until
// the connection dies or falls silent past DeadAfter.
func (g *Gateway) ServeWorkers(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		g.wg.Add(1)
		go g.handleConn(conn)
	}
}

// send writes one frame to the worker, serialized per connection.
func (g *Gateway) send(rw *remoteWorker, m wire.Msg) error {
	rw.smu.Lock()
	defer rw.smu.Unlock()
	if err := wire.WriteMsg(rw.conn, &rw.sbuf, m); err != nil {
		return err
	}
	g.framesOut.Add(1)
	g.bytesOut.Add(int64(rw.sbuf.Len()))
	return nil
}

func (g *Gateway) handleConn(conn net.Conn) {
	defer g.wg.Done()
	// Registration handshake, bounded by the liveness window.
	conn.SetReadDeadline(time.Now().Add(g.cfg.DeadAfter))
	msg, scratch, err := wire.ReadMsg(conn, nil)
	if err != nil {
		g.cfg.Logf("fleet: worker handshake: %v", err)
		conn.Close()
		return
	}
	reg, ok := msg.(*wire.Register)
	if !ok || reg.Name == "" {
		g.cfg.Logf("fleet: worker handshake: expected register, got %v", msg.Type())
		conn.Close()
		return
	}
	rw := &remoteWorker{
		name:     reg.Name,
		conn:     conn,
		capacity: int(reg.Capacity),
		assigned: make(map[string]*gwJob),
	}
	g.mu.Lock()
	old := g.workers[reg.Name]
	if old != nil {
		// A re-registration under a live name is the restart case: the
		// old connection is dead weight. Mark it gone so its read loop
		// unwinds without tearing down the replacement, and unmap it so
		// the failover below lands on the new connection, not the corpse.
		old.gone = true
		delete(g.workers, reg.Name)
	}
	g.mu.Unlock()
	if old != nil {
		old.conn.Close()
	}
	// Ack before the worker becomes dispatchable: the first frame a
	// worker reads must be the ack, and a parked-job redispatch could
	// otherwise slip a submit in ahead of it.
	if err := g.send(rw, &wire.Ack{Gateway: g.cfg.Name}); err != nil {
		g.cfg.Logf("fleet: worker %s handshake ack: %v", reg.Name, err)
		conn.Close()
		if old != nil {
			g.failoverJobs(old, "replaced by failed re-registration")
		}
		return
	}
	g.mu.Lock()
	g.workers[reg.Name] = rw
	g.mu.Unlock()
	g.registered.Add(1)
	g.cfg.Logf("fleet: worker %s registered (capacity %d, pool %d)",
		reg.Name, reg.Capacity, reg.Workers)
	if old != nil {
		g.failoverJobs(old, "replaced by re-registration")
	}
	g.dispatchPending()

	for {
		conn.SetReadDeadline(time.Now().Add(g.cfg.DeadAfter))
		var m wire.Msg
		m, scratch, err = wire.ReadMsg(conn, scratch)
		if err != nil {
			g.dropWorker(rw, err)
			return
		}
		g.framesIn.Add(1)
		switch m := m.(type) {
		case *wire.Heartbeat:
			g.mu.Lock()
			rw.depth = int(m.Depth)
			rw.loadEpoch++
			rw.inFlight = int(m.InFlight)
			rw.capacity = int(m.Capacity)
			g.mu.Unlock()
			g.dispatchPending()
		case *wire.Progress:
			g.handleProgress(rw, m)
		case *wire.Result:
			g.handleResult(rw, m)
		case *wire.Shed:
			g.handleShed(rw, m)
		default:
			g.cfg.Logf("fleet: worker %s sent unexpected %v", rw.name, m.Type())
		}
	}
}

// dropWorker removes a dead connection and fails its jobs over. A
// worker replaced by re-registration was already marked gone and its
// jobs already reassigned; the stale read loop lands here and exits
// quietly.
func (g *Gateway) dropWorker(rw *remoteWorker, cause error) {
	g.mu.Lock()
	if rw.gone {
		g.mu.Unlock()
		return
	}
	rw.gone = true
	if g.workers[rw.name] == rw {
		delete(g.workers, rw.name)
	}
	g.mu.Unlock()
	rw.conn.Close()
	g.deaths.Add(1)
	g.cfg.Logf("fleet: worker %s lost: %v", rw.name, cause)
	g.failoverJobs(rw, "worker lost")
}

// failoverJobs redispatches everything a dead worker still owed.
// Idempotency is the content address: the job's canonical spec bytes
// hash identically on the next worker, so a re-run either recomputes
// the same bytes or hits that worker's cache — either way the result
// is the one the client would have gotten.
func (g *Gateway) failoverJobs(rw *remoteWorker, why string) {
	g.mu.Lock()
	var orphans []*gwJob
	for _, j := range rw.assigned { //detvet:ok sorted by id below
		if !j.terminal() {
			j.owner = ""
			orphans = append(orphans, j)
		}
	}
	rw.assigned = make(map[string]*gwJob)
	g.mu.Unlock()
	// Deterministic retry order for logs and tests.
	sort.Slice(orphans, func(i, k int) bool { return orphans[i].id < orphans[k].id })
	for _, j := range orphans {
		g.resubmitted.Add(1)
		g.cfg.Logf("fleet: %s: resubmitting %s (%s)", why, j.id, j.kind)
		g.redispatch(j)
	}
}

func (g *Gateway) handleProgress(rw *remoteWorker, m *wire.Progress) {
	g.mu.Lock()
	j := g.jobs[m.Job]
	if j == nil || j.terminal() || j.owner != rw.name {
		g.mu.Unlock()
		return
	}
	if m.Event == "start" {
		j.status = "running"
	}
	g.mu.Unlock()
	j.log.Publish(serve.Event{
		Event: m.Event, Done: int(m.Done), Total: int(m.Total),
		Label: m.Label, Cached: m.Cached,
	})
}

func (g *Gateway) handleResult(rw *remoteWorker, m *wire.Result) {
	g.mu.Lock()
	j := g.jobs[m.Job]
	if j == nil {
		g.mu.Unlock()
		return
	}
	if rw.assigned[j.id] == j {
		// Undo dispatch's optimistic bump unless a heartbeat or shed
		// has already replaced depth with the worker's own count.
		if j.bumpEpoch == rw.loadEpoch && rw.depth > 0 {
			rw.depth--
		}
		delete(rw.assigned, j.id)
	}
	if j.terminal() {
		// A slow worker finishing a job the gateway already failed over.
		// Results are content-addressed, so the duplicate is byte-
		// identical to what we already have; count it and move on.
		g.mu.Unlock()
		g.duplicateResults.Add(1)
		return
	}
	switch m.Status {
	case wire.StatusDone:
		j.status = "done"
		j.body = m.Body
		j.cached = m.Cached
		g.completed.Add(1)
		if m.Cached {
			g.workerCacheHits.Add(1)
		}
		g.cachePut(j.hash, m.Body)
	case wire.StatusCanceled:
		// The worker canceled (drain, timeout-free cancellation) rather
		// than computed an answer; the work itself is still viable on
		// another worker.
		j.owner = ""
		g.mu.Unlock()
		g.cfg.Logf("fleet: %s canceled on %s: resubmitting", j.id, rw.name)
		g.resubmitted.Add(1)
		g.redispatch(j)
		return
	default:
		// Deterministic job failure: retrying elsewhere would fail the
		// same way, so surface it.
		j.status = "failed"
		j.errMsg = m.Error
		g.failed.Add(1)
	}
	status, errMsg := j.status, j.errMsg
	g.mu.Unlock()
	ev := serve.Event{Event: status, Cached: m.Cached}
	if errMsg != "" {
		ev.Error = errMsg
	}
	j.log.Publish(ev)
	close(j.done)
	g.cfg.Logf("fleet: %s %s %s on %s [%s]",
		j.id, j.kind, status, rw.name, serve.HashString(j.hash))
}

func (g *Gateway) handleShed(rw *remoteWorker, m *wire.Shed) {
	g.shedsSeen.Add(1)
	g.mu.Lock()
	j := g.jobs[m.Job]
	if j == nil || j.terminal() {
		g.mu.Unlock()
		return
	}
	delete(rw.assigned, j.id)
	j.owner = ""
	j.shedBy[rw.name] = true
	rw.depth = int(m.Depth) // the shed carries fresher load truth than the last heartbeat
	rw.loadEpoch++
	g.mu.Unlock()
	g.routedAround.Add(1)
	g.cfg.Logf("fleet: %s shed by %s: rerouting", j.id, rw.name)
	g.redispatch(j)
}

// ---- gateway result cache ----

// cachePut stores a completed body under its spec hash, evicting the
// oldest entry once the bound is reached. Re-storing an existing hash
// is a no-op: results are content-addressed, so the bytes are already
// identical and the original's eviction age stands.
func (g *Gateway) cachePut(hash uint64, body []byte) {
	g.cacheMu.Lock()
	defer g.cacheMu.Unlock()
	if _, ok := g.cacheBody[hash]; ok {
		return
	}
	for len(g.cacheOrder) >= g.cfg.CacheEntries {
		delete(g.cacheBody, g.cacheOrder[0])
		g.cacheOrder = g.cacheOrder[1:]
	}
	g.cacheBody[hash] = body
	g.cacheOrder = append(g.cacheOrder, hash)
}

func (g *Gateway) cacheGet(hash uint64) ([]byte, bool) {
	g.cacheMu.Lock()
	defer g.cacheMu.Unlock()
	body, ok := g.cacheBody[hash]
	return body, ok
}

// preferredUnavailable reports whether the rendezvous-preferred owner
// for j cannot take it right now: no workers at all, the owner is
// saturated, or it already shed this job. That is the moment a cached
// repeat is worth answering from the gateway — when the owner is free,
// forwarding is as fast and keeps the worker's own LRU warm.
func (g *Gateway) preferredUnavailable(j *gwJob) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.workers) == 0 {
		return true
	}
	names := make([]string, 0, len(g.workers))
	for name := range g.workers { //detvet:ok RankOwners sorts by weight below
		names = append(names, name)
	}
	pref := g.workers[RankOwners(j.hash, names)[0]]
	return (pref.capacity > 0 && pref.depth >= pref.capacity) || j.shedBy[pref.name]
}

// ---- dispatch ----

var (
	errNoWorkers = errors.New("fleet: no workers registered")
	errSaturated = errors.New("fleet: all workers saturated")
)

// pickWorker chooses the dispatch target for a job under g.mu:
// rendezvous ranking over live workers, skipping saturated ones
// (heartbeat depth at capacity) and ones that already shed this job.
// Returns errSaturated when workers exist but none can take the job.
func (g *Gateway) pickWorker(j *gwJob) (*remoteWorker, error) {
	if len(g.workers) == 0 {
		return nil, errNoWorkers
	}
	names := make([]string, 0, len(g.workers))
	for name := range g.workers { //detvet:ok RankOwners sorts by weight below
		names = append(names, name)
	}
	for _, name := range RankOwners(j.hash, names) {
		rw := g.workers[name]
		if rw.depth >= rw.capacity && rw.capacity > 0 {
			continue // saturated: route around instead of forwarding its 429
		}
		if j.shedBy[name] {
			continue
		}
		return rw, nil
	}
	return nil, errSaturated
}

// dispatch assigns and sends a job. On errSaturated the caller decides:
// the admission path turns it into 429, the failover path parks the job
// for the redispatch ticker.
func (g *Gateway) dispatch(j *gwJob) error {
	g.mu.Lock()
	rw, err := g.pickWorker(j)
	if err != nil {
		g.mu.Unlock()
		return err
	}
	j.owner = rw.name
	j.status = "queued"
	rw.assigned[j.id] = j
	// Optimistic bump so a burst between heartbeats spreads instead of
	// dogpiling the first worker; the job's result or the next heartbeat,
	// whichever comes first, restores truth.
	rw.depth++
	j.bumpEpoch = rw.loadEpoch
	g.mu.Unlock()
	if err := g.send(rw, &wire.Submit{Job: j.id, Hash: j.hash, Spec: j.specBytes}); err != nil {
		// The connection died mid-send; dropWorker reassigns everything
		// it owed, including this job.
		g.dropWorker(rw, err)
		return nil
	}
	return nil
}

// redispatch is dispatch for jobs that already ran somewhere: it
// enforces the retry budget and parks when the fleet is full or empty.
func (g *Gateway) redispatch(j *gwJob) {
	g.mu.Lock()
	if j.terminal() {
		g.mu.Unlock()
		return
	}
	j.retries++
	if j.retries > g.cfg.MaxRetries {
		j.status = "failed"
		j.errMsg = fmt.Sprintf("fleet: gave up after %d dispatch attempts", j.retries)
		g.mu.Unlock()
		g.failed.Add(1)
		j.log.Publish(serve.Event{Event: "failed", Error: j.errMsg})
		close(j.done)
		return
	}
	g.mu.Unlock()
	if err := g.dispatch(j); err != nil {
		g.mu.Lock()
		j.owner = ""
		j.status = "queued"
		g.pending = append(g.pending, j)
		g.mu.Unlock()
		g.parked.Add(1)
		g.cfg.Logf("fleet: %s parked (%v)", j.id, err)
	}
}

// dispatchPending retries parked jobs; called when capacity may have
// appeared (heartbeat, registration) and from the ticker.
func (g *Gateway) dispatchPending() {
	g.mu.Lock()
	parked := g.pending
	g.pending = nil
	g.mu.Unlock()
	for i, j := range parked {
		if j.terminal() {
			continue
		}
		if err := g.dispatch(j); err != nil {
			// Still no room: park this and the rest back, preserving order.
			g.mu.Lock()
			for _, rest := range parked[i:] {
				if !rest.terminal() {
					g.pending = append(g.pending, rest)
				}
			}
			g.mu.Unlock()
			return
		}
	}
}

func (g *Gateway) redispatchTicker() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.RetryEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			g.dispatchPending()
		case <-g.stopTick:
			return
		}
	}
}

// ---- client HTTP side ----

// Handler returns the client-facing HTTP surface: the same routes,
// shapes, and NDJSON streaming contract as internal/serve's daemon, so
// socctl needs no gateway mode.
func (g *Gateway) Handler() http.Handler { return g.mux }

func (g *Gateway) routes() {
	g.mux.HandleFunc("POST /jobs", g.handleSubmit)
	g.mux.HandleFunc("GET /jobs", g.handleList)
	g.mux.HandleFunc("GET /jobs/{id}", g.handleStatus)
	g.mux.HandleFunc("GET /jobs/{id}/result", g.handleJobResult)
	g.mux.HandleFunc("GET /jobs/{id}/stream", g.handleStream)
	g.mux.HandleFunc("GET /workers", g.handleWorkers)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
}

type submitResponse struct {
	ID     string `json:"id"`
	Hash   string `json:"hash"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
}

type statusResponse struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Hash   string `json:"hash"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Worker string `json:"worker,omitempty"`
	Error  string `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading spec: %v", err)
		return
	}
	spec, err := serve.ParseSpec(data)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	wait := r.URL.Query().Get("wait") == "1"
	g.submitted.Add(1)

	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		w.Header().Set("Retry-After", "30")
		writeErr(w, http.StatusServiceUnavailable, "draining: not admitting jobs")
		return
	}
	g.seq++
	j := &gwJob{
		id:        fmt.Sprintf("job-%d", g.seq),
		kind:      spec.Kind,
		hash:      spec.Hash(),
		specBytes: spec.Canonical(),
		log:       serve.NewEventLog(),
		done:      make(chan struct{}),
		status:    "queued",
		shedBy:    make(map[string]bool),
	}
	g.jobs[j.id] = j
	g.order = append(g.order, j.id)
	g.mu.Unlock()

	// A repeat of a completed spec whose preferred owner has no room is
	// answered from the gateway's own result cache: byte-identical to a
	// worker round-trip (results are deterministic in the canonical
	// spec), with no queueing behind the saturated owner and no 429.
	if body, ok := g.cacheGet(j.hash); ok && g.preferredUnavailable(j) {
		g.mu.Lock()
		j.status = "done"
		j.body = body
		j.cached = true
		g.mu.Unlock()
		g.completed.Add(1)
		g.gatewayCacheHits.Add(1)
		j.log.Publish(serve.Event{Event: "queued", Label: j.kind})
		j.log.Publish(serve.Event{Event: "done", Cached: true})
		close(j.done)
		g.cfg.Logf("fleet: %s %s served from gateway cache [%s]",
			j.id, j.kind, serve.HashString(j.hash))
		if wait {
			g.writeResult(w, j)
			return
		}
		writeJSON(w, http.StatusAccepted, submitResponse{
			ID: j.id, Hash: serve.HashString(j.hash), Status: "done", Cached: true,
		})
		return
	}

	if err := g.dispatch(j); err != nil {
		// Aggregated shed: the job is refused only when NO worker can
		// take it, with a Retry-After computed from fleet-wide load —
		// a single hot worker never surfaces as a client-visible 429.
		g.mu.Lock()
		delete(g.jobs, j.id)
		if n := len(g.order); n > 0 && g.order[n-1] == j.id {
			g.order = g.order[:n-1]
		}
		totalLoad, workers := 0, 0
		for _, rw := range g.workers { //detvet:ok load sum, order-free
			totalLoad += rw.depth + rw.inFlight
			workers++
		}
		g.mu.Unlock()
		if errors.Is(err, errNoWorkers) {
			w.Header().Set("Retry-After", "5")
			writeErr(w, http.StatusServiceUnavailable, "no workers registered")
			return
		}
		retry := 1 + 2*totalLoad/workers
		if retry > 60 {
			retry = 60
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeErr(w, http.StatusTooManyRequests,
			"fleet saturated (%d workers all at capacity): retry after %ds", workers, retry)
		return
	}
	j.log.Publish(serve.Event{Event: "queued", Label: j.kind})

	if wait {
		select {
		case <-j.done:
			g.writeResult(w, j)
		case <-r.Context().Done():
			writeErr(w, http.StatusRequestTimeout, "client canceled while waiting for %s", j.id)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID: j.id, Hash: serve.HashString(j.hash), Status: "queued", Cached: false,
	})
}

func (g *Gateway) lookup(id string) (*gwJob, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.jobs[id]
	return j, ok
}

func (g *Gateway) statusOf(j *gwJob) statusResponse {
	g.mu.Lock()
	defer g.mu.Unlock()
	return statusResponse{
		ID: j.id, Kind: j.kind, Hash: serve.HashString(j.hash),
		Status: j.status, Cached: j.cached, Worker: j.owner, Error: j.errMsg,
	}
}

func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	ids := append([]string(nil), g.order...)
	g.mu.Unlock()
	out := make([]statusResponse, 0, len(ids))
	for _, id := range ids {
		if j, ok := g.lookup(id); ok {
			out = append(out, g.statusOf(j))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := g.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, g.statusOf(j))
}

// writeResult serves a finished job's body verbatim — the bytes the
// worker computed are the bytes on the wire, end to end, which is what
// makes gateway results byte-identical to single-daemon results.
func (g *Gateway) writeResult(w http.ResponseWriter, j *gwJob) {
	g.mu.Lock()
	status, body, errMsg, cached, owner := j.status, j.body, j.errMsg, j.cached, j.owner
	g.mu.Unlock()
	switch status {
	case "done":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Job-Id", j.id)
		if cached {
			w.Header().Set("X-Cache", "hit")
		} else {
			w.Header().Set("X-Cache", "miss")
		}
		if owner != "" {
			w.Header().Set("X-Worker", owner)
		}
		w.Write(body)
	case "failed":
		writeErr(w, http.StatusInternalServerError, "%s", errMsg)
	case "canceled":
		writeErr(w, http.StatusConflict, "%s", errMsg)
	default:
		writeJSON(w, http.StatusAccepted, g.statusOf(j))
	}
}

func (g *Gateway) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := g.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	g.writeResult(w, j)
}

// handleStream tails a job's event log as chunked NDJSON, exactly like
// the single-daemon endpoint: full replay, then live events until the
// terminal one. Failover is visible as a second queued/start sequence
// mid-stream — the seam the fleet smoke test greps for.
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := g.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	replay, live, cancel := j.log.Subscribe()
	defer cancel()
	for _, e := range replay {
		enc.Encode(e)
	}
	if canFlush {
		flusher.Flush()
	}
	if live == nil {
		return
	}
	for {
		select {
		case e, ok := <-live:
			if !ok {
				return
			}
			enc.Encode(e)
			if canFlush {
				flusher.Flush()
			}
			if e.Terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// workerRow is the GET /workers reply row.
type workerRow struct {
	Name     string `json:"name"`
	Depth    int    `json:"depth"`
	InFlight int    `json:"in_flight"`
	Capacity int    `json:"capacity"`
	Assigned int    `json:"assigned"`
}

func (g *Gateway) handleWorkers(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	rows := make([]workerRow, 0, len(g.workers))
	for name, rw := range g.workers { //detvet:ok sorted below
		rows = append(rows, workerRow{
			Name: name, Depth: rw.depth, InFlight: rw.inFlight,
			Capacity: rw.capacity, Assigned: len(rw.assigned),
		})
	}
	g.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"workers": rows})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	g.reg.WriteJSON(w)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	draining := g.draining
	workers := len(g.workers)
	inFlight := 0
	for _, j := range g.jobs { //detvet:ok order-free count
		if !j.terminal() {
			inFlight++
		}
	}
	g.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	switch {
	case draining:
		status = "draining"
		code = http.StatusServiceUnavailable
	case workers == 0:
		status = "no-workers"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":    status,
		"workers":   workers,
		"in_flight": inFlight,
	})
}

// BeginDrain stops admission; subsequent submissions get 503.
// Idempotent.
func (g *Gateway) BeginDrain() {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
}

// Shutdown drains the gateway: stop admitting, wait for in-flight jobs
// to reach terminal states (workers keep computing) until ctx expires,
// then drop every worker connection and stop the ticker. Callers close
// their listeners first so no new connections race the teardown.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.BeginDrain()
	var err error
wait:
	for {
		g.mu.Lock()
		busy := 0
		for _, j := range g.jobs { //detvet:ok order-free count
			if !j.terminal() {
				busy++
			}
		}
		g.mu.Unlock()
		if busy == 0 {
			break
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break wait
		case <-time.After(20 * time.Millisecond):
		}
	}
	g.mu.Lock()
	conns := make([]*remoteWorker, 0, len(g.workers))
	for _, rw := range g.workers { //detvet:ok teardown, order-free
		rw.gone = true
		conns = append(conns, rw)
	}
	g.workers = make(map[string]*remoteWorker)
	g.mu.Unlock()
	for _, rw := range conns {
		rw.conn.Close()
	}
	close(g.stopTick)
	g.wg.Wait()
	return err
}
