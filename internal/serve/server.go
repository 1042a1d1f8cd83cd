package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time" //detvet:ok wall-clock serves only Config.JobTimeout, never a result body

	"repro/internal/stats"
)

// Config sizes the daemon. Zero values take the defaults noted on each
// field.
type Config struct {
	Workers    int                              // worker pool width (default 2)
	QueueDepth int                              // bounded admission queue (default 16)
	CacheSize  int                              // LRU result-cache entries (default 128)
	JobTimeout time.Duration                    // per-job wall bound (default 10m; <0 = none)
	Logf       func(format string, args ...any) // optional logger
}

// Server is the job service's front: the HTTP surface, job table,
// result cache, progress logs and drain, over an Executor that runs the
// admitted jobs. Create with New (local worker pool) or NewFront, mount
// Handler on an http.Server, and retire with Shutdown.
type Server struct {
	cfg   Config
	reg   *stats.Registry
	cache *Cache
	mux   *http.ServeMux
	exec  Executor

	mu       sync.Mutex
	draining bool
	live     int           // admitted jobs not yet finished
	idle     chan struct{} // closed once draining and live == 0
	jobs     map[string]*Job
	order    []string // job ids in submission order
	seq      int

	// Counters read lock-free by stats sources and handlers.
	submitted, completed, failed, canceled, shed atomic.Int64
}

// New builds a server over the local worker pool and starts the pool.
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 16
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 10 * time.Minute
	}
	if cfg.JobTimeout < 0 {
		cfg.JobTimeout = 0
	}
	s := NewFront(cfg, nil)
	s.exec = newPool(s)
	return s
}

// NewFront builds a server over exec. Only CacheSize and Logf of cfg
// apply; the executor sizes itself. Register extra stats sources on
// Metrics before serving traffic.
func NewFront(cfg Config, exec Executor) *Server {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 128
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:   cfg,
		reg:   stats.New(),
		cache: NewCache(cfg.CacheSize),
		mux:   http.NewServeMux(),
		exec:  exec,
		idle:  make(chan struct{}),
		jobs:  make(map[string]*Job),
	}
	s.registerStats()
	s.routes()
	return s
}

// Metrics returns the server's registry so hosts (cmd/socd) can render
// or extend the serve/* namespace.
func (s *Server) Metrics() *stats.Registry { return s.reg }

// Completed reports how many jobs finished done: executed ones, and
// repeats answered from the result cache at submission.
func (s *Server) Completed() (executed, cacheHits int64) {
	_, _, hits, _, _, _ := s.cache.Stats()
	return s.completed.Load(), int64(hits)
}

// registerStats publishes the front's own counters into the same
// path/name namespace socsim -stats uses, so /metrics renders cache and
// job health as one tree.
func (s *Server) registerStats() {
	s.reg.Source("serve/cache", func(emit stats.Emit) {
		size, capacity, hits, misses, evictions, bytes := s.cache.Stats()
		emit("bytes", float64(bytes))
		emit("capacity", float64(capacity))
		emit("evictions", float64(evictions))
		emit("hits", float64(hits))
		emit("misses", float64(misses))
		emit("size", float64(size))
	})
	s.reg.Source("serve/jobs", func(emit stats.Emit) {
		emit("canceled", float64(s.canceled.Load()))
		emit("completed", float64(s.completed.Load()))
		emit("failed", float64(s.failed.Load()))
		emit("submitted", float64(s.submitted.Load()))
	})
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// newJobLocked registers a job record under the next id; s.mu is held.
func (s *Server) newJobLocked(spec Spec, hash uint64, status string) *Job {
	s.seq++
	j := &Job{
		s:      s,
		id:     fmt.Sprintf("job-%d", s.seq),
		spec:   spec,
		hash:   hash,
		events: newEventLog(),
		done:   make(chan struct{}),
		status: status,
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j
}

// settle moves the count of admitted, unfinished jobs and releases a
// waiting Shutdown once a drain has nothing left in flight.
func (s *Server) settle(delta int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live += delta
	if s.draining && s.live == 0 {
		close(s.idle)
	}
}

// BeginDrain stops admission: subsequent submissions get 503. Jobs
// already admitted keep running. Idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	if s.live == 0 {
		close(s.idle)
	}
}

// Shutdown is the graceful-drain path: stop admitting, let admitted
// jobs finish until ctx expires, then drain the executor — which
// cancels what remains — and flush a final stats snapshot
// to the log. The goroutine count returns to its pre-New level.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	var err error
	select {
	case <-s.idle:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.exec.Drain(ctx)
	var buf bytes.Buffer
	if werr := s.reg.WriteJSON(&buf); werr == nil {
		s.cfg.Logf("serve: final stats\n%s", buf.String())
	}
	return err
}

// ---- HTTP handlers ----

// submitResponse is the POST /jobs reply.
type submitResponse struct {
	ID     string `json:"id"`
	Hash   string `json:"hash"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
}

// JobStatus is a job's state as the GET /jobs[/{id}] reply row. Worker
// is set only when the executor named one (a fleet gateway's worker).
type JobStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Hash   string `json:"hash"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Worker string `json:"worker,omitempty"`
	Error  string `json:"error,omitempty"`
}

// WriteJSON writes v as the service's indented JSON reply with the
// given status code. Hosts that mount extra routes beside Handler use
// it so every reply has one shape.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading spec: %v", err)
		return
	}
	spec, err := ParseSpec(data)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	wait := r.URL.Query().Get("wait") == "1"

	j, err := s.Submit(spec)
	if err != nil {
		var qf *QueueFullError
		switch {
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "30")
			writeErr(w, http.StatusServiceUnavailable, "draining: not admitting jobs")
		case errors.Is(err, ErrNoCapacity):
			w.Header().Set("Retry-After", "5")
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
		case errors.As(err, &qf):
			w.Header().Set("Retry-After", strconv.Itoa(qf.RetryAfter))
			writeErr(w, http.StatusTooManyRequests, "queue full (%d deep): retry after %ds",
				qf.Depth, qf.RetryAfter)
		default:
			writeErr(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	if j.hit {
		if wait {
			s.writeResult(w, j)
			return
		}
		WriteJSON(w, http.StatusOK, submitResponse{
			ID: j.id, Hash: HashString(j.hash), Status: "done", Cached: true,
		})
		return
	}
	if wait {
		select {
		case <-j.done:
			s.writeResult(w, j)
		case <-r.Context().Done():
			// Client gave up; the job keeps running and stays pollable.
			writeErr(w, http.StatusRequestTimeout, "client canceled while waiting for %s", j.id)
		}
		return
	}
	WriteJSON(w, http.StatusAccepted, submitResponse{
		ID: j.id, Hash: HashString(j.hash), Status: "queued", Cached: false,
	})
}

// drop removes a refused job's record: a shed or refused submission has
// no id worth polling.
func (s *Server) drop(j *Job) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	if n := len(s.order); n > 0 && s.order[n-1] == j.id {
		s.order = s.order[:n-1]
	}
	s.mu.Unlock()
	s.settle(-1)
}

func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.lookup(id); ok {
			st, _ := j.Snapshot()
			out = append(out, st)
		}
	}
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	st, _ := j.Snapshot()
	WriteJSON(w, http.StatusOK, st)
}

// writeResult serves a finished job's body verbatim — the bytes the
// cache stores are the bytes on the wire, which is what makes the
// byte-identity contract end-to-end observable.
func (s *Server) writeResult(w http.ResponseWriter, j *Job) {
	st, body := j.Snapshot()
	switch st.Status {
	case "done":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Job-Id", j.id)
		if st.Cached {
			w.Header().Set("X-Cache", "hit")
		} else {
			w.Header().Set("X-Cache", "miss")
		}
		if st.Worker != "" {
			w.Header().Set("X-Worker", st.Worker)
		}
		w.Write(body)
	case "failed":
		writeErr(w, http.StatusInternalServerError, "%s", st.Error)
	case "canceled":
		writeErr(w, http.StatusConflict, "%s", st.Error)
	default:
		WriteJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	s.writeResult(w, j)
}

// handleStream follows a job's event log as chunked NDJSON: the history
// first, then live events until the terminal one. Every line is one
// Event with a contiguous job-local seq, so watcher-side ordering checks
// are trivial. Behind a fleet gateway a failover shows as a second
// queued/start sequence mid-stream.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	j.Follow(r.Context(), func(e Event) bool {
		if enc.Encode(e) != nil {
			return false
		}
		if canFlush {
			flusher.Flush()
		}
		return true
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.reg.WriteJSON(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	queued, running, width := s.exec.Load()
	status := "ok"
	code := http.StatusOK
	switch {
	case draining:
		status = "draining"
		code = http.StatusServiceUnavailable
	case width == 0:
		status = "no-workers"
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, map[string]any{
		"status":    status,
		"workers":   width,
		"queue":     queued,
		"in_flight": running,
	})
}
