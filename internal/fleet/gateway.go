package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
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
	DeadAfter time.Duration                    // silence window before a worker is declared dead (default 5s)
	Logf      func(format string, args ...any) // optional logger
}

const (
	gatewayName = "socgw" // fleet name sent in registration acks
	maxRetries  = 5       // failovers per job before it fails
)

// Gateway is socgw: a serve front — the daemon's own client routes, job
// table, result cache and drain, so socctl works unchanged — over the
// fleet executor defined here. The executor shards admitted jobs across
// registered workers by rendezvous hash over the spec's content
// address, and carries the worker-facing side of the binary wire
// protocol — registration, heartbeats, submit/progress/result frames,
// failover on worker loss. It implements serve.Executor; the front
// calls Admit, Load and Drain.
type Gateway struct {
	cfg   GatewayConfig
	front *serve.Server
	mux   *http.ServeMux

	mu      sync.Mutex
	workers map[string]*remoteWorker
	jobs    map[string]*gwJob // admitted jobs not yet finished, by id
	pending []*gwJob          // admitted jobs awaiting a dispatch slot

	wg sync.WaitGroup // conn handlers

	// Counters read lock-free by stats sources.
	registered, deaths, resubmitted   atomic.Int64
	routedAround, shedsSeen, parked   atomic.Int64
	duplicateResults, workerCacheHits atomic.Int64
	framesIn, framesOut               atomic.Int64
	bytesIn, bytesOut                 atomic.Int64
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

// gwJob is the executor's routing state for one admitted job; the
// front's serve.Job holds everything a client sees. Mutable fields are
// guarded by Gateway.mu.
type gwJob struct {
	job       *serve.Job
	specBytes []byte // canonical form, what Submit frames carry

	owner   string // worker currently responsible, "" while parked
	retries int
	shedBy  map[string]bool // workers that refused this job
	// bumpEpoch is the owner's loadEpoch when dispatch bumped its depth.
	bumpEpoch uint64
}

// NewGateway builds a gateway. Serve workers with ServeWorkers, mount
// Handler on an http.Server, retire with Shutdown.
func NewGateway(cfg GatewayConfig) *Gateway {
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	g := &Gateway{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		workers: make(map[string]*remoteWorker),
		jobs:    make(map[string]*gwJob),
	}
	g.front = serve.NewFront(serve.Config{Logf: cfg.Logf}, g)
	g.registerStats()
	g.mux.HandleFunc("GET /workers", g.handleWorkers)
	g.mux.Handle("/", g.front.Handler())
	return g
}

// Handler returns the client-facing HTTP surface: the front's routes
// plus GET /workers.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Metrics returns the front's registry, which also carries the fleet/*
// namespace.
func (g *Gateway) Metrics() *stats.Registry { return g.front.Metrics() }

// BeginDrain stops admission; subsequent submissions get 503.
// Idempotent.
func (g *Gateway) BeginDrain() { g.front.BeginDrain() }

// Shutdown drains the gateway: stop admitting, wait for in-flight jobs
// to finish on their workers until ctx expires, then drop every worker
// connection. Callers close their listeners first so no new
// connections race the teardown.
func (g *Gateway) Shutdown(ctx context.Context) error { return g.front.Shutdown(ctx) }

func (g *Gateway) registerStats() {
	reg := g.front.Metrics()
	reg.Source("fleet/workers", func(emit stats.Emit) {
		g.mu.Lock()
		live := len(g.workers)
		g.mu.Unlock()
		emit("deaths", float64(g.deaths.Load()))
		emit("live", float64(live))
		emit("registered_total", float64(g.registered.Load()))
	})
	reg.Source("fleet/jobs", func(emit stats.Emit) {
		executed, cacheHits := g.front.Completed()
		queued, running, _ := g.Load()
		emit("completed", float64(executed+cacheHits))
		emit("gateway_cache_hits", float64(cacheHits))
		emit("in_flight", float64(queued+running))
		emit("parked", float64(queued))
		emit("worker_cache_hits", float64(g.workerCacheHits.Load()))
	})
	reg.Source("fleet/failover", func(emit stats.Emit) {
		emit("duplicate_results", float64(g.duplicateResults.Load()))
		emit("parked_total", float64(g.parked.Load()))
		emit("resubmitted", float64(g.resubmitted.Load()))
		emit("routed_around", float64(g.routedAround.Load()))
		emit("sheds_seen", float64(g.shedsSeen.Load()))
		emit("worker_deaths", float64(g.deaths.Load()))
	})
	reg.Source("fleet/wire", func(emit stats.Emit) {
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
	if err := g.send(rw, &wire.Ack{Gateway: gatewayName}); err != nil {
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
		case *wire.Progress:
			g.handleProgress(rw, m)
		case *wire.Result:
			g.handleResult(rw, m)
		case *wire.Shed:
			g.handleShed(rw, m)
		default:
			g.cfg.Logf("fleet: worker %s sent unexpected %v", rw.name, m.Type())
		}
		// Every frame is a chance that room appeared for parked jobs.
		g.dispatchPending()
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
	for id, j := range rw.assigned { //detvet:ok sorted by id below
		if g.jobs[id] == j {
			j.owner = ""
			orphans = append(orphans, j)
		}
	}
	rw.assigned = make(map[string]*gwJob)
	g.mu.Unlock()
	// Deterministic retry order for logs and tests.
	sort.Slice(orphans, func(i, k int) bool { return orphans[i].job.ID() < orphans[k].job.ID() })
	for _, j := range orphans {
		g.resubmitted.Add(1)
		g.cfg.Logf("fleet: %s: resubmitting %s (%s)", why, j.job.ID(), j.job.Spec().Kind)
		g.redispatch(j)
	}
}

func (g *Gateway) handleProgress(rw *remoteWorker, m *wire.Progress) {
	g.mu.Lock()
	j := g.jobs[m.Job]
	owned := j != nil && j.owner == rw.name
	g.mu.Unlock()
	if owned {
		j.job.Progress(serve.Event{
			Event: m.Event, Done: int(m.Done), Total: int(m.Total),
			Label: m.Label, Cached: m.Cached,
		})
	}
}

func (g *Gateway) handleResult(rw *remoteWorker, m *wire.Result) {
	g.mu.Lock()
	if aj := rw.assigned[m.Job]; aj != nil {
		// Undo dispatch's optimistic bump unless a heartbeat or shed
		// has already replaced depth with the worker's own count.
		if aj.bumpEpoch == rw.loadEpoch && rw.depth > 0 {
			rw.depth--
		}
		delete(rw.assigned, m.Job)
	}
	j := g.jobs[m.Job]
	if j == nil {
		// A slow worker finishing a job the gateway already failed over.
		// Results are content-addressed, so the duplicate is byte-
		// identical to what we already have; count it and move on.
		g.mu.Unlock()
		g.duplicateResults.Add(1)
		return
	}
	if m.Status == wire.StatusCanceled {
		// The worker canceled (drain, timeout-free cancellation) rather
		// than computed an answer; the work itself is still viable on
		// another worker.
		j.owner = ""
		g.mu.Unlock()
		g.cfg.Logf("fleet: %s canceled on %s: resubmitting", m.Job, rw.name)
		g.resubmitted.Add(1)
		g.redispatch(j)
		return
	}
	delete(g.jobs, m.Job)
	g.mu.Unlock()
	if m.Status == wire.StatusDone {
		if m.Cached {
			g.workerCacheHits.Add(1)
		}
		j.job.Finish("done", m.Body, "", m.Cached)
		return
	}
	// Deterministic job failure: retrying elsewhere would fail the same
	// way, so surface it.
	j.job.Finish("failed", nil, m.Error, false)
}

func (g *Gateway) handleShed(rw *remoteWorker, m *wire.Shed) {
	g.shedsSeen.Add(1)
	g.mu.Lock()
	j := g.jobs[m.Job]
	if j == nil {
		g.mu.Unlock()
		return
	}
	delete(rw.assigned, m.Job)
	j.owner = ""
	j.shedBy[rw.name] = true
	rw.depth = int(m.Depth) // the shed carries fresher load truth than the last heartbeat
	rw.loadEpoch++
	g.mu.Unlock()
	g.routedAround.Add(1)
	g.cfg.Logf("fleet: %s shed by %s: rerouting", m.Job, rw.name)
	g.redispatch(j)
}

// ---- the serve.Executor side ----

var (
	errNoWorkers = fmt.Errorf("fleet: no workers registered: %w", serve.ErrNoCapacity)
	errSaturated = errors.New("fleet: all workers saturated")
)

// Admit dispatches a newly admitted job. The job is refused only when
// no worker can take it: ErrNoCapacity for an empty fleet, or a
// *serve.QueueFullError with a Retry-After computed from fleet-wide
// load when every worker is saturated — a single hot worker never
// surfaces as a client-visible 429.
func (g *Gateway) Admit(job *serve.Job) error {
	spec := job.Spec()
	j := &gwJob{job: job, specBytes: spec.Canonical(), shedBy: make(map[string]bool)}
	g.mu.Lock()
	g.jobs[job.ID()] = j
	g.mu.Unlock()
	err := g.dispatch(j)
	if err == nil {
		return nil
	}
	g.mu.Lock()
	delete(g.jobs, job.ID())
	load, capacity := 0, 0
	for _, rw := range g.workers { //detvet:ok load sum, order-free
		load += rw.depth + rw.inFlight
		capacity += rw.capacity
	}
	workers := len(g.workers)
	g.mu.Unlock()
	if errors.Is(err, errNoWorkers) {
		return err
	}
	retry := 1 + 2*load/max(workers, 1)
	if retry > 60 {
		retry = 60
	}
	return &serve.QueueFullError{Depth: capacity, RetryAfter: retry}
}

// Load reports parked jobs as queued, the rest of the admitted jobs as
// running, and the live worker count as the width.
func (g *Gateway) Load() (queued, running, width int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, j := range g.pending {
		if g.jobs[j.job.ID()] == j {
			queued++
		}
	}
	return queued, len(g.jobs) - queued, len(g.workers)
}

// Drain drops every worker connection. The front calls it once
// admitted jobs have finished or its deadline passed; jobs still out on
// workers are abandoned.
func (g *Gateway) Drain(ctx context.Context) {
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
	g.wg.Wait()
}

// ---- dispatch ----

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
	for _, name := range RankOwners(j.job.Hash(), names) {
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

// dispatch assigns and sends a live job; a job that finished meanwhile
// is left alone. On errSaturated or errNoWorkers the caller decides:
// admission refuses the job, failover parks it until dispatchPending
// finds room.
func (g *Gateway) dispatch(j *gwJob) error {
	id := j.job.ID()
	g.mu.Lock()
	if g.jobs[id] != j {
		g.mu.Unlock()
		return nil
	}
	rw, err := g.pickWorker(j)
	if err != nil {
		g.mu.Unlock()
		return err
	}
	j.owner = rw.name
	rw.assigned[id] = j
	// Optimistic bump so a burst between heartbeats spreads instead of
	// dogpiling the first worker; the job's result or the next heartbeat,
	// whichever comes first, restores truth.
	rw.depth++
	j.bumpEpoch = rw.loadEpoch
	g.mu.Unlock()
	j.job.Start(rw.name)
	if err := g.send(rw, &wire.Submit{Job: id, Hash: j.job.Hash(), Spec: j.specBytes}); err != nil {
		// The connection died mid-send; dropWorker reassigns everything
		// it owed, including this job.
		g.dropWorker(rw, err)
	}
	return nil
}

// redispatch is dispatch for jobs that already ran somewhere: it
// enforces the retry budget and parks when the fleet is full or empty.
// A parked job forgets which workers shed it, so it waits for room
// rather than for a worker under a new name; each shed already spent
// one retry. After parking it calls dispatchPending once, in case a
// worker registered between the failed dispatch and the park.
func (g *Gateway) redispatch(j *gwJob) {
	g.mu.Lock()
	if g.jobs[j.job.ID()] != j {
		g.mu.Unlock()
		return
	}
	j.retries++
	if j.retries > maxRetries {
		delete(g.jobs, j.job.ID())
		g.mu.Unlock()
		j.job.Finish("failed", nil, fmt.Sprintf("fleet: gave up after %d dispatch attempts", j.retries), false)
		return
	}
	g.mu.Unlock()
	if err := g.dispatch(j); err != nil {
		g.mu.Lock()
		j.owner = ""
		clear(j.shedBy)
		g.pending = append(g.pending, j)
		g.mu.Unlock()
		g.parked.Add(1)
		g.cfg.Logf("fleet: %s parked (%v)", j.job.ID(), err)
		g.dispatchPending()
	}
}

// dispatchPending retries parked jobs. pickWorker reads only worker
// membership, worker load and shedBy, so room can appear only when a
// worker registers or a frame lowers a worker's load (heartbeat, result,
// shed). Registration and every handled frame call this, and each live
// worker's heartbeats keep frames coming, so no timer is needed.
func (g *Gateway) dispatchPending() {
	g.mu.Lock()
	parked := g.pending
	g.pending = nil
	g.mu.Unlock()
	for i, j := range parked {
		if err := g.dispatch(j); err != nil {
			// Still no room: park this and the rest back, preserving order.
			g.mu.Lock()
			for _, rest := range parked[i:] {
				if g.jobs[rest.job.ID()] == rest {
					g.pending = append(g.pending, rest)
				}
			}
			g.mu.Unlock()
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
	serve.WriteJSON(w, http.StatusOK, map[string]any{"workers": rows})
}
