package trace

import (
	"sort"

	"repro/internal/stats"
)

// Kind classifies one latency-insensitive handshake observation.
type Kind uint8

const (
	// KindPush is a successful producer-side transfer into the channel.
	// Value carries the in-channel message count after the push.
	KindPush Kind = iota
	// KindPop is a successful consumer-side transfer out of the channel.
	// Value carries the in-channel message count after the pop.
	KindPop
	// KindFull is a rejected push attempt: the channel had no capacity or
	// ready was withheld (back-pressure seen by the producer).
	KindFull
	// KindEmpty is a rejected pop attempt: nothing deliverable or valid
	// was withheld (starvation seen by the consumer).
	KindEmpty
	// KindStall is an injected-stall or clock-pause level change. For
	// channels Value packs the stall bits (bit 0: valid withheld, bit 1:
	// ready withheld); for pausible CDC FIFOs Value is 1 per pause.
	KindStall
	// KindValid is a committed valid-level change (Value 0 or 1).
	KindValid
	// KindReady is a committed ready-level change (Value 0 or 1).
	KindReady
	// KindOcc is a committed-occupancy change (Value = occupancy).
	KindOcc
)

func (k Kind) String() string {
	switch k {
	case KindPush:
		return "push"
	case KindPop:
		return "pop"
	case KindFull:
		return "full"
	case KindEmpty:
		return "empty"
	case KindStall:
		return "stall"
	case KindValid:
		return "valid"
	case KindReady:
		return "ready"
	case KindOcc:
		return "occ"
	default:
		return "kind?"
	}
}

// Event is one recorded handshake observation. Subject indexes the
// recorder's interned path table (Recorder.Paths).
type Event struct {
	Subject int
	Kind    Kind
	Time    uint64 // simulated picoseconds at emission
	Cycle   uint64 // the subject clock's cycle count at emission
	Value   uint64
}

// Subject is an interned event emitter: one channel, router, or CDC FIFO,
// identified by its hierarchical component path (the internal/stats path
// scheme, e.g. "soc/pe[3]/inject"). Components cache the *Subject pointer
// at construction; when the simulation is not armed the pointer is nil
// and the emission site reduces to one predictable branch.
type Subject struct {
	r    *Recorder
	id   int
	path string
}

// Path returns the subject's component path.
func (s *Subject) Path() string { return s.path }

// Emit appends one event. The caller must nil-check the subject first:
//
//	if c.sub != nil {
//		c.sub.Emit(trace.KindPush, now, cycle, occ)
//	}
//
// which keeps the disarmed fast path free of any recorder work.
func (s *Subject) Emit(k Kind, time, cycle, value uint64) {
	r := s.r
	if r.limit > 0 && len(r.events) >= r.limit {
		r.dropped++
		return
	}
	r.events = append(r.events, Event{Subject: s.id, Kind: k, Time: time, Cycle: cycle, Value: value})
}

// DefaultEventLimit bounds a recorder's memory: beyond it events are
// counted as dropped instead of stored (a full SoC test run stays well
// under it; raise with SetLimit for very long armed runs).
const DefaultEventLimit = 1 << 22

// Recorder collects handshake events from every armed component of one
// simulation. It has no synchronization: the simulation kernel serializes
// all component execution, and parallel experiment campaigns give every
// job its own simulator and recorder, so event streams are bit-identical
// for any worker count.
type Recorder struct {
	subjects []*Subject
	byPath   map[string]int
	events   []Event
	limit    int
	dropped  uint64
}

// NewRecorder returns an empty recorder with the default event limit.
func NewRecorder() *Recorder {
	return &Recorder{byPath: make(map[string]int), limit: DefaultEventLimit}
}

// SetLimit replaces the event cap; n <= 0 removes it.
func (r *Recorder) SetLimit(n int) { r.limit = n }

// Subject interns path and returns its emitter handle. Calling it on a
// nil recorder returns nil, so construction-time caching can be written
// unconditionally as sub := sim.Tracer().Subject(path).
func (r *Recorder) Subject(path string) *Subject {
	if r == nil {
		return nil
	}
	if id, ok := r.byPath[path]; ok {
		return r.subjects[id]
	}
	s := &Subject{r: r, id: len(r.subjects), path: path}
	r.subjects = append(r.subjects, s)
	r.byPath[path] = s.id
	return s
}

// Events returns the recorded stream in emission (simulation) order. The
// returned slice aliases the recorder's storage.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Dropped returns the number of events discarded at the limit.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Paths returns the interned subject paths indexed by Event.Subject.
func (r *Recorder) Paths() []string {
	out := make([]string, len(r.subjects))
	for i, s := range r.subjects {
		out[i] = s.path
	}
	return out
}

// sortedSubjects returns subject indices in natural path order, the
// order every rendered artifact (VCD header, report, metrics) uses.
func (r *Recorder) sortedSubjects() []int {
	idx := make([]int, len(r.subjects))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return stats.PathLess(r.subjects[idx[a]].path, r.subjects[idx[b]].path)
	})
	return idx
}
