package serve

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/exp"
	"repro/internal/stats"
)

// Executor runs the jobs a Server admits. The Server is the front: it
// owns everything a client sees — routes, job table, result cache,
// event logs, drain — and hands each cache miss to its executor. The
// executor decides only where and when the job runs. New wires the
// local worker pool; internal/fleet wires a gateway over remote workers.
type Executor interface {
	// Admit takes a queued job, or refuses it with a *QueueFullError
	// (429: no room right now), ErrNoCapacity (503: nothing could ever
	// run it) or ErrDraining. An admitted job must be driven to exactly
	// one Finish.
	Admit(j *Job) error
	// Load reports jobs waiting, jobs running, and how many can run at
	// once (pool width, or live fleet workers; 0 reads as no-workers).
	Load() (queued, running, width int)
	// Drain is called once the front has stopped admitting: let held
	// jobs finish until ctx expires, cancel the rest, and return once
	// the executor's goroutines are gone.
	Drain(ctx context.Context)
}

// Job is one admitted (or cache-answered) job: the handle an Executor
// drives through Start, Progress and Finish, and that clients follow
// through Follow, Done and Snapshot.
type Job struct {
	s      *Server
	id     string
	spec   Spec
	hash   uint64
	hit    bool // answered from the front's cache at submission
	events *eventLog
	done   chan struct{}

	mu     sync.Mutex
	status string // queued | running | done | failed | canceled
	worker string // named runner, "" for a local pool slot
	body   []byte
	errMsg string
	cached bool
}

// ID is the job's client-visible id.
func (j *Job) ID() string { return j.id }

// Spec is the job's normalized spec.
func (j *Job) Spec() Spec { return j.spec }

// Hash is the job's content address.
func (j *Job) Hash() uint64 { return j.hash }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Follow hands fn each event of the job's log in Seq order: the history
// first, then every event as it is published. It returns after the
// terminal event, when fn returns false, or when ctx ends. By the time
// fn sees the terminal event, Snapshot reports the final state.
func (j *Job) Follow(ctx context.Context, fn func(Event) bool) { j.events.Follow(ctx, fn) }

// Snapshot returns the job's status row and, once done, its body. The
// body is the canonical result — callers must not mutate it.
func (j *Job) Snapshot() (JobStatus, []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, Kind: j.spec.Kind, Hash: HashString(j.hash),
		Status: j.status, Cached: j.cached, Worker: j.worker, Error: j.errMsg,
	}, j.body
}

// Start marks the job running on worker ("" when the runner has no
// name). A repeat call — a fleet failover — renames the worker; a call
// after Finish is ignored.
func (j *Job) Start(worker string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == "queued" || j.status == "running" {
		j.status, j.worker = "running", worker
	}
}

// Progress appends a non-terminal event to the job's log.
func (j *Job) Progress(e Event) { j.events.Publish(e) }

// Finish records the job's outcome: status is done, failed or canceled;
// cached says the runner answered from its own cache. A done body
// enters the front's result cache before the job is visible as done,
// so a client that saw it finish always hits on resubmission; the status
// is recorded before the terminal event is published.
func (j *Job) Finish(status string, body []byte, errMsg string, cached bool) {
	s := j.s
	switch status {
	case "done":
		s.cache.Put(j.hash, body)
		s.completed.Add(1)
	case "failed":
		s.failed.Add(1)
	default:
		s.canceled.Add(1)
	}
	j.mu.Lock()
	j.status, j.body, j.errMsg, j.cached = status, body, errMsg, cached
	worker := j.worker
	j.mu.Unlock()
	j.events.Publish(Event{Event: status, Error: errMsg, Cached: cached})
	close(j.done)
	if worker != "" {
		worker = " on " + worker
	}
	s.cfg.Logf("serve: %s %s %s%s [%s]", j.id, j.spec.Kind, status, worker, HashString(j.hash))
	s.settle(-1)
}

// pool is the local executor: a bounded admission queue drained by a
// fixed worker pool that runs each job through internal/exp.
type pool struct {
	s *Server

	// jobCtx is the campaign context handed to every exp run; canceling
	// it (the drain deadline path) stops in-flight jobs and completes
	// queued ones as canceled without running them.
	jobCtx     context.Context
	cancelJobs context.CancelFunc

	mu     sync.Mutex
	queue  chan *Job
	closed bool

	wg              sync.WaitGroup // worker goroutines
	depth, inFlight atomic.Int64
}

func newPool(s *Server) *pool {
	ctx, cancel := context.WithCancel(context.Background())
	p := &pool{s: s, jobCtx: ctx, cancelJobs: cancel, queue: make(chan *Job, s.cfg.QueueDepth)}
	s.reg.Source("serve/queue", func(emit stats.Emit) {
		emit("capacity", float64(s.cfg.QueueDepth))
		emit("depth", float64(p.depth.Load()))
		emit("in_flight", float64(p.inFlight.Load()))
		emit("shed_total", float64(s.shed.Load()))
		emit("workers", float64(s.cfg.Workers))
	})
	for i := 0; i < s.cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Admit queues the job without blocking: a full queue sheds it. The
// send happens under p.mu so it can never race Drain's close.
func (p *pool) Admit(j *Job) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrDraining
	}
	select {
	case p.queue <- j:
		p.depth.Add(1)
		return nil
	default:
		retry := 1 + 2*int(p.depth.Load()+p.inFlight.Load())
		if retry > 60 {
			retry = 60
		}
		return &QueueFullError{Depth: p.s.cfg.QueueDepth, RetryAfter: retry}
	}
}

func (p *pool) Load() (queued, running, width int) {
	return int(p.depth.Load()), int(p.inFlight.Load()), p.s.cfg.Workers
}

// Drain closes the queue so workers exit once the backlog is processed;
// when ctx expires first, the rest is canceled through the campaign
// context.
func (p *pool) Drain(ctx context.Context) {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	stop := context.AfterFunc(ctx, p.cancelJobs)
	p.wg.Wait()
	stop()
	p.cancelJobs() // release the context in the clean-drain path too
}

// worker drains the admission queue until it closes and the backlog is
// gone.
func (p *pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.depth.Add(-1)
		p.run(j)
	}
}

// run executes one job through the exp runner, inheriting its panic
// isolation, per-job timeout and context cancellation.
func (p *pool) run(j *Job) {
	if p.jobCtx.Err() != nil {
		j.Finish("canceled", nil, "canceled during drain", false)
		return
	}
	p.inFlight.Add(1)
	defer p.inFlight.Add(-1)
	j.Start("")
	j.Progress(Event{Event: "start", Label: j.spec.Kind})

	sum := exp.Run([]exp.Job{{
		Name: "job",
		Run: func(c *exp.Ctx) (any, error) {
			return Execute(c, j.spec, func(done, total int, label string) {
				j.Progress(Event{Event: "progress", Done: done, Total: total, Label: label})
			})
		},
	}},
		exp.WithContext(p.jobCtx),
		exp.Timeout(p.s.cfg.JobTimeout),
	)
	r := sum.Results[0]
	switch {
	case r.Canceled:
		j.Finish("canceled", nil, r.Err.Error(), false)
	case r.Failed():
		j.Finish("failed", nil, r.Err.Error(), false)
	default:
		// Two concurrent submissions of the same spec both compute here;
		// the bodies are byte-identical by construction and the cache
		// keeps the first, so the race is harmless.
		j.Finish("done", r.Value.([]byte), "", false)
	}
}
