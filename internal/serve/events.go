package serve

import (
	"context"
	"sync"
)

// Event is one entry in a job's ordered progress log, rendered to
// watchers as one NDJSON line. Seq is the job-local sequence number;
// watchers always observe contiguous, increasing Seq whether they replay
// history or tail live.
type Event struct {
	Seq    int    `json:"seq"`
	Event  string `json:"event"` // queued | start | progress | done | failed | canceled
	Done   int    `json:"done,omitempty"`
	Total  int    `json:"total,omitempty"`
	Label  string `json:"label,omitempty"`
	Error  string `json:"error,omitempty"`
	Cached bool   `json:"cached,omitempty"`
}

// Terminal reports whether the event ends the job's log.
func (e Event) Terminal() bool {
	return e.Event == "done" || e.Event == "failed" || e.Event == "canceled"
}

// eventLog is a job's progress log: the kept history plus one broadcast
// channel. The full history is kept (job logs are small — one line per
// campaign job, plus bookends), so every follower reads it at its own
// pace and gets every event exactly once, in order; a slow one catches
// up from the history instead of being cut off. Publish wakes all
// followers at once by closing more and replacing it.
type eventLog struct {
	mu     sync.Mutex
	past   []Event
	more   chan struct{} // closed by the next Publish
	closed bool
}

func newEventLog() *eventLog {
	return &eventLog{more: make(chan struct{})}
}

// Publish appends the event, assigning its Seq, and wakes every
// follower. Events published after the terminal one are dropped, which
// is what makes replays after a fleet failover harmless: the first
// terminal event wins.
func (h *eventLog) Publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	e.Seq = len(h.past)
	h.past = append(h.past, e)
	h.closed = e.Terminal()
	close(h.more)
	h.more = make(chan struct{})
}

// Follow hands fn every event from the first on, waiting for new ones
// as they are published. It returns after the terminal event, when fn
// returns false, or when ctx ends. Published events are never modified,
// so the history is read outside the lock.
func (h *eventLog) Follow(ctx context.Context, fn func(Event) bool) {
	next := 0
	for {
		h.mu.Lock()
		batch, more := h.past[next:], h.more
		h.mu.Unlock()
		for _, e := range batch {
			if !fn(e) || e.Terminal() {
				return
			}
		}
		next += len(batch)
		select {
		case <-more:
		case <-ctx.Done():
			return
		}
	}
}
