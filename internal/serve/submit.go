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

// Submit normalizes and admits a spec exactly as POST /jobs does:
// content-hash first, cache lookup, then admission to the executor. It
// returns ErrDraining after BeginDrain, the executor's refusal (a
// *QueueFullError or ErrNoCapacity), or a normalization error for an
// invalid spec. A returned job is live: answered from the cache,
// queued, or already running.
func (s *Server) Submit(spec Spec) (*Job, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	hash := spec.Hash()
	s.submitted.Add(1)

	if body, ok := s.cache.Get(hash); ok {
		s.mu.Lock()
		j := s.newJobLocked(spec, hash, "done")
		j.body, j.cached, j.hit = body, true, true // readers find j only through s.mu
		s.mu.Unlock()
		j.events.Publish(Event{Event: "done", Cached: true})
		close(j.done)
		return j, nil
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	j := s.newJobLocked(spec, hash, "queued")
	s.live++
	s.mu.Unlock()
	j.events.Publish(Event{Event: "queued", Label: spec.Kind})
	if err := s.exec.Admit(j); err != nil {
		s.drop(j)
		var qf *QueueFullError
		if errors.As(err, &qf) {
			s.shed.Add(1)
		}
		return nil, err
	}
	return j, nil
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
