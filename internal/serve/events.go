package serve

import "sync"

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

// eventLog is a job's progress log plus its live subscribers. The full
// history is kept (job logs are small — one line per campaign job, plus
// bookends), so a watcher attaching at any point gets every event
// exactly once, in order. Every Job owns one; a fleet worker
// (internal/fleet) tails it to relay progress to its gateway.
type eventLog struct {
	mu     sync.Mutex
	past   []Event
	subs   map[int]chan Event
	nextID int
	closed bool
}

// newEventLog returns an empty, open log.
func newEventLog() *eventLog {
	return &eventLog{subs: make(map[int]chan Event)}
}

// Publish appends the event (assigning its Seq) and fans it out. A
// subscriber that cannot keep up — its buffer full — is dropped rather
// than allowed to block job execution; its channel closes and the
// HTTP handler reports the truncation. Events published after the
// terminal one are dropped, which is what makes replays after a fleet
// failover harmless: the first terminal event wins.
func (h *eventLog) Publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	e.Seq = len(h.past)
	h.past = append(h.past, e)
	for id, ch := range h.subs { //detvet:ok fan-out: each subscriber sees its own events in Seq order
		select {
		case ch <- e:
		default:
			close(ch)
			delete(h.subs, id)
		}
	}
	if e.Terminal() {
		h.closed = true
		for id, ch := range h.subs { //detvet:ok closing every subscriber, order-free
			close(ch)
			delete(h.subs, id)
		}
	}
}

// Subscribe returns the replay of everything published so far and, when
// the log is still open, a channel tailing future events (closed on the
// terminal event). cancel detaches the subscriber; it is safe to call
// after the channel closed.
func (h *eventLog) Subscribe() (replay []Event, live <-chan Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = append([]Event(nil), h.past...)
	if h.closed {
		return replay, nil, func() {}
	}
	id := h.nextID
	h.nextID++
	ch := make(chan Event, 256)
	h.subs[id] = ch
	return replay, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[id]; ok {
			delete(h.subs, id)
			close(ch)
		}
	}
}
