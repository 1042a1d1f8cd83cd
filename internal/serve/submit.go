package serve

import (
	"errors"
	"fmt"
)

// The programmatic submission surface. The HTTP handlers are thin
// wrappers over it; the fleet layer's worker mode (internal/fleet)
// drives it directly, bridging gateway wire frames onto the same
// admission queue, cache, and event plumbing the HTTP path uses — one
// code path, two front ends.

// ErrDraining rejects submissions to a server that has begun its drain.
// The HTTP surface renders it as 503.
var ErrDraining = errors.New("serve: draining: not admitting jobs")

// QueueFullError rejects a submission the bounded admission queue could
// not absorb, with the server's own backoff estimate. The HTTP surface
// renders it as 429 + Retry-After; a fleet worker relays it to the
// gateway as a shed frame so the gateway can route around the hot spot.
type QueueFullError struct {
	Depth      int // configured queue capacity
	RetryAfter int // suggested client backoff, seconds
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: queue full (%d deep): retry after %ds", e.Depth, e.RetryAfter)
}

// ErrNoCapacity rejects a submission no runner could take at all — a
// fleet gateway with no registered workers. Executors wrap it with the
// reason; the HTTP surface renders it as 503.
var ErrNoCapacity = errors.New("no capacity")

// Submission is a handle on one admitted (or cache-satisfied) job.
type Submission struct {
	ID     string
	Hash   uint64
	Cached bool // satisfied from the result cache at submission time
	j      *Job
}

// Done returns a channel closed when the job reaches a terminal state.
func (sub *Submission) Done() <-chan struct{} { return sub.j.done }

// Snapshot returns the job's current status ("queued", "running",
// "done", "failed", "canceled"), its result body when done, its error
// message when failed or canceled, and whether the body came from the
// cache. The body is the canonical result — callers must not mutate it.
func (sub *Submission) Snapshot() (status string, body []byte, errMsg string, cached bool) {
	st, body := sub.j.view()
	return st.Status, body, st.Error, st.Cached
}

// Watch subscribes to the job's event log: the replay of everything
// published so far plus, while the log is open, a live channel closed
// on the terminal event. cancel detaches the watcher.
func (sub *Submission) Watch() (replay []Event, live <-chan Event, cancel func()) {
	return sub.j.hub.Subscribe()
}

// Submit normalizes and admits a spec exactly as POST /jobs does:
// content-hash first, cache lookup, then admission to the executor. It
// returns ErrDraining after BeginDrain, the executor's refusal (a
// *QueueFullError or ErrNoCapacity), or a normalization error for an
// invalid spec. A returned Submission is live: the job is cached,
// queued, or already running.
func (s *Server) Submit(spec Spec) (*Submission, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	hash := spec.Hash()
	s.submitted.Add(1)

	if body, ok := s.cache.Get(hash); ok {
		s.mu.Lock()
		j := s.newJobLocked(spec, hash, "done")
		j.body, j.cached = body, true // readers find j only through s.mu
		s.mu.Unlock()
		j.hub.Publish(Event{Event: "done", Cached: true})
		close(j.done)
		return &Submission{ID: j.id, Hash: hash, Cached: true, j: j}, nil
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	j := s.newJobLocked(spec, hash, "queued")
	s.live++
	s.mu.Unlock()
	j.hub.Publish(Event{Event: "queued", Label: spec.Kind})
	if err := s.exec.Admit(j); err != nil {
		s.drop(j)
		var qf *QueueFullError
		if errors.As(err, &qf) {
			s.shed.Add(1)
		}
		return nil, err
	}
	return &Submission{ID: j.id, Hash: hash, j: j}, nil
}

// Load reports the server's instantaneous admission load — jobs
// waiting, jobs executing, configured queue capacity, and executor
// width. Fleet workers put these numbers in their heartbeats so the
// gateway can route around saturation instead of discovering it via
// sheds.
func (s *Server) Load() (depth, inFlight, capacity, workers int) {
	depth, inFlight, workers = s.exec.Load()
	return depth, inFlight, s.cfg.QueueDepth, workers
}
