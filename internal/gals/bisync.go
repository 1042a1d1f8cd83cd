package gals

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// PausibleBisyncFIFO is the pausible bisynchronous FIFO of the paper's
// reference [8]: a dual-clock FIFO whose integrated pausible clocking
// stretches the receiving clock whenever a pointer crossing lands inside
// the synchronization conflict window, giving error-free crossings with
// only the pause (typically a fraction of a cycle) as latency cost —
// instead of the fixed two-cycle penalty of a brute-force synchronizer.
//
// Producer-side methods must be called from threads of the producer
// clock, consumer-side methods from threads of the consumer clock.
type PausibleBisyncFIFO[T any] struct {
	prod, cons *sim.Clock
	s          *sim.Simulator

	buf  []entry[T]
	wptr uint64
	rptr uint64

	// Cached parking predicates for blocked Push/Pop, and the event
	// (as the slice they park on) that PushNB and PopNB notify.
	notFull  func() bool
	notEmpty func() bool
	ev       sim.Event
	evs      [1]*sim.Event

	// window is the metastability conflict window in picoseconds: a
	// pointer change closer than this to the other domain's next edge
	// pauses that edge.
	window sim.Time

	// Armed handshake tracing; sub is nil when disarmed and every
	// emission site nil-checks it. The tLast* fields change-detect the
	// level signals (valid = not empty, ready = not full).
	sub                    *trace.Subject
	tInit                  bool
	tLastValid, tLastReady uint64

	Pauses    uint64 // receiver-clock pauses caused by this FIFO
	Transfers uint64
}

type entry[T any] struct {
	v T
}

// NewPausibleBisyncFIFO builds a FIFO of the given depth between the two
// clock domains. window is the conflict window in ps (a flop's
// setup+hold aperture, typically tens of ps).
func NewPausibleBisyncFIFO[T any](s *sim.Simulator, name string, prod, cons *sim.Clock, depth int, window sim.Time) *PausibleBisyncFIFO[T] {
	if depth < 1 {
		panic(fmt.Sprintf("gals: FIFO depth %d", depth))
	}
	f := &PausibleBisyncFIFO[T]{
		prod: prod, cons: cons, s: s,
		buf:    make([]entry[T], depth),
		window: window,
	}
	f.notFull = func() bool { return f.wptr-f.rptr < uint64(len(f.buf)) }
	f.notEmpty = func() bool { return f.rptr != f.wptr }
	f.evs[0] = &f.ev
	f.sub = s.Tracer().Subject(name)
	s.Metrics().Source(name, func(emit stats.Emit) {
		emit("pauses", float64(f.Pauses))
		emit("transfers", float64(f.Transfers))
		emit("occupancy", float64(f.Occupancy()))
	})
	s.Design().AddSync(sim.SyncDecl{Name: name, Style: "pausible", Prod: prod, Cons: cons, Depth: depth})
	return f
}

// pauseIfConflict implements the pausible handshake: a pointer that
// toggles at the current instant may violate the aperture of the flops
// sampling it in domain c; when the phase relationship puts the toggle
// inside that window, the mutex stretches c's next edge just past it.
// The pause is tiny (window ps), so the pessimistic phase test costs
// almost nothing while guaranteeing an error-free crossing.
func (f *PausibleBisyncFIFO[T]) pauseIfConflict(c, from *sim.Clock) {
	// The edge that samples this pointer toggle is the clock's actual
	// next scheduled edge — including phase offset and any shift from
	// earlier pauses. A now-modulo-period phase test is only right for a
	// never-paused, zero-phase clock: once the receiver has been
	// stretched, its edges no longer land on period multiples, so the
	// modulo test pauses at the wrong phase or misses conflicts.
	//
	// The toggle happens on from's current edge, so from.Now is the
	// crossing instant. When c is due at that same instant its edge still
	// fires (the kernel fixed the step's due set before any edge ran);
	// the pause moves the edge after it.
	now := from.Now()
	until := now + f.window
	if c.NextEdge() < until {
		c.Pause(until)
		f.Pauses++
		if f.sub != nil {
			f.sub.Emit(trace.KindStall, uint64(now), c.Cycle(), 1)
		}
	}
}

// record emits a handshake event plus any valid/ready level changes,
// stamped with clock c's cycle count (producer clock for push-side
// events, consumer clock for pop-side events).
func (f *PausibleBisyncFIFO[T]) record(k trace.Kind, c *sim.Clock) {
	now, cyc := uint64(c.Now()), c.Cycle()
	occ := uint64(f.Occupancy())
	f.sub.Emit(k, now, cyc, occ)
	var valid, ready uint64
	if f.rptr != f.wptr {
		valid = 1
	}
	if f.wptr-f.rptr < uint64(len(f.buf)) {
		ready = 1
	}
	if !f.tInit || valid != f.tLastValid {
		f.sub.Emit(trace.KindValid, now, cyc, valid)
		f.tLastValid = valid
	}
	if !f.tInit || ready != f.tLastReady {
		f.sub.Emit(trace.KindReady, now, cyc, ready)
		f.tLastReady = ready
	}
	if k == trace.KindPush || k == trace.KindPop {
		f.sub.Emit(trace.KindOcc, now, cyc, occ)
	}
	f.tInit = true
}

// PushNB offers v from the producer domain. It returns false when full.
func (f *PausibleBisyncFIFO[T]) PushNB(v T) bool {
	if f.wptr-f.rptr >= uint64(len(f.buf)) {
		if f.sub != nil {
			f.record(trace.KindFull, f.prod)
		}
		return false
	}
	f.buf[f.wptr%uint64(len(f.buf))] = entry[T]{v: v}
	f.wptr++
	f.ev.Notify()
	if f.sub != nil {
		f.record(trace.KindPush, f.prod)
	}
	// The write pointer crosses toward the consumer clock now.
	f.pauseIfConflict(f.cons, f.prod)
	return true
}

// Push blocks (in producer-domain cycles) until accepted. A blocked
// producer parks on the FIFO's capacity predicate, which only a PopNB
// can turn true: a failed PushNB has no side effects, so parking is
// cycle-identical to polling.
func (f *PausibleBisyncFIFO[T]) Push(th *sim.Thread, v T) {
	for !f.PushNB(v) {
		f.ParkPush(th)
	}
}

// ParkPush parks th until a PushNB could succeed, the way a blocked Push
// waits. A method whose PushNB failed calls it and returns from its step,
// to retry the push when it next runs.
func (f *PausibleBisyncFIFO[T]) ParkPush(th *sim.Thread) {
	th.WaitOn(f.notFull, f.evs[:]...)
}

// PopNB takes a value in the consumer domain. It returns false when empty.
func (f *PausibleBisyncFIFO[T]) PopNB() (T, bool) {
	var zero T
	if f.rptr == f.wptr {
		if f.sub != nil {
			f.record(trace.KindEmpty, f.cons)
		}
		return zero, false
	}
	v := f.buf[f.rptr%uint64(len(f.buf))].v
	f.rptr++
	f.Transfers++
	f.ev.Notify()
	if f.sub != nil {
		f.record(trace.KindPop, f.cons)
	}
	// The read pointer crosses toward the producer clock now.
	f.pauseIfConflict(f.prod, f.cons)
	return v, true
}

// Pop blocks (in consumer-domain cycles) until a value arrives, parking
// on the FIFO's occupancy predicate while empty.
func (f *PausibleBisyncFIFO[T]) Pop(th *sim.Thread) T {
	for {
		if v, ok := f.PopNB(); ok {
			return v
		}
		f.ParkPop(th)
	}
}

// ParkPop parks th until a PopNB could succeed, the way a blocked Pop
// waits; see ParkPush.
func (f *PausibleBisyncFIFO[T]) ParkPop(th *sim.Thread) {
	th.WaitOn(f.notEmpty, f.evs[:]...)
}

// Occupancy returns the number of buffered entries.
func (f *PausibleBisyncFIFO[T]) Occupancy() int { return int(f.wptr - f.rptr) }

// BruteForceSyncFIFO is the baseline dual-clock FIFO: gray-coded pointers
// cross through two-flop synchronizers, so each domain observes the other
// side's pointer two of its own clock edges late. Crossing latency is
// therefore ≥ 2 receiver cycles, but no clock is ever paused.
type BruteForceSyncFIFO[T any] struct {
	prod, cons *sim.Clock

	buf  []entry[T]
	wptr uint64
	rptr uint64

	// Two-stage synchronizer pipelines for each direction.
	wptrSyncToCons [2]uint64
	rptrSyncToProd [2]uint64

	Transfers uint64

	// Parking predicates for blocked Push/Pop. Only a synchronized
	// pointer moving can turn them true, so ev notifies from the
	// synchronizer commit hooks when one does.
	notFull  func() bool
	notEmpty func() bool
	ev       sim.Event
	evs      [1]*sim.Event
}

// NewBruteForceSyncFIFO builds the baseline FIFO, registers the
// synchronizer flops on both clocks, and — like its pausible sibling —
// registers the FIFO as a named component (stats source) and as a
// synchronizer edge in the design graph, so lint and -stats can see it.
func NewBruteForceSyncFIFO[T any](s *sim.Simulator, name string, prod, cons *sim.Clock, depth int) *BruteForceSyncFIFO[T] {
	if depth < 1 {
		panic(fmt.Sprintf("gals: FIFO depth %d", depth))
	}
	f := &BruteForceSyncFIFO[T]{
		prod: prod, cons: cons,
		buf: make([]entry[T], depth),
	}
	f.notFull = func() bool { return f.wptr-f.rptrSyncToProd[1] < uint64(len(f.buf)) }
	f.notEmpty = func() bool { return f.rptr != f.wptrSyncToCons[1] }
	f.evs[0] = &f.ev
	cons.AtCommitNamed(name, func() {
		if f.wptrSyncToCons[1] != f.wptrSyncToCons[0] {
			f.ev.Notify()
		}
		f.wptrSyncToCons[1] = f.wptrSyncToCons[0]
		f.wptrSyncToCons[0] = f.wptr
	})
	prod.AtCommitNamed(name, func() {
		if f.rptrSyncToProd[1] != f.rptrSyncToProd[0] {
			f.ev.Notify()
		}
		f.rptrSyncToProd[1] = f.rptrSyncToProd[0]
		f.rptrSyncToProd[0] = f.rptr
	})
	s.Metrics().Source(name, func(emit stats.Emit) {
		emit("transfers", float64(f.Transfers))
		emit("occupancy", float64(f.Occupancy()))
	})
	s.Design().AddSync(sim.SyncDecl{Name: name, Style: "brute-force", Prod: prod, Cons: cons, Depth: depth})
	return f
}

// Occupancy returns the number of buffered entries as the producer
// domain sees them (the true pointer difference, ignoring synchronizer
// staleness).
func (f *BruteForceSyncFIFO[T]) Occupancy() int { return int(f.wptr - f.rptr) }

// PushNB offers v from the producer domain, observing the synchronized
// (stale) read pointer for the full check.
func (f *BruteForceSyncFIFO[T]) PushNB(v T) bool {
	if f.wptr-f.rptrSyncToProd[1] >= uint64(len(f.buf)) {
		return false
	}
	f.buf[f.wptr%uint64(len(f.buf))] = entry[T]{v: v}
	f.wptr++
	return true
}

// Push blocks until accepted, parking on the synchronized full check.
func (f *BruteForceSyncFIFO[T]) Push(th *sim.Thread, v T) {
	for !f.PushNB(v) {
		th.WaitOn(f.notFull, f.evs[:]...)
	}
}

// PopNB takes a value, observing the synchronized (stale) write pointer.
func (f *BruteForceSyncFIFO[T]) PopNB() (T, bool) {
	var zero T
	if f.rptr == f.wptrSyncToCons[1] {
		return zero, false
	}
	v := f.buf[f.rptr%uint64(len(f.buf))].v
	f.rptr++
	f.Transfers++
	return v, true
}

// Pop blocks until a value arrives, parking on the synchronized empty
// check.
func (f *BruteForceSyncFIFO[T]) Pop(th *sim.Thread) T {
	for {
		if v, ok := f.PopNB(); ok {
			return v
		}
		th.WaitOn(f.notEmpty, f.evs[:]...)
	}
}
