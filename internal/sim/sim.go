package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Time is simulated time in picoseconds.
type Time uint64

// Infinity is a time later than any event.
const Infinity Time = math.MaxUint64

// Simulator owns clocks, threads, metrics, and simulated time.
type Simulator struct {
	clocks []*Clock
	now    Time
	// stopped is atomic so that Stop may be called from a goroutine
	// other than the one stepping the kernel.
	stopped atomic.Bool
	err     error

	// ordered caches s.clocks sorted by name for deterministic coincident
	// edge firing; a clock's rank is its index there. awake is the set of
	// ranks of the clocks in the due scan: every clock but the sleeping
	// ones. due is the reusable scratch list of clocks firing at the
	// current step, in rank order, and dueAt the index in it of the clock
	// whose edge is running (-1 between steps).
	ordered      []*Clock
	orderedDirty bool
	awake        []uint64
	due          []*Clock
	dueAt        int

	// firedRank marks which edges at instant now have fired: those of
	// clocks ranked at or below it, the last clock that ran at now. A
	// sleeping clock's edge (t, rank) has fired iff t < now, or t == now
	// and rank <= firedRank. A completed step sets it to allFired.
	firedRank int32

	// wakes lists the sleeping clocks whose parked slots Notify woke;
	// stepDue wakes them after each edge and nextDue before each scan.
	wakes []*Clock

	metrics *stats.Registry
	design  *Design

	tracer *trace.Recorder
}

// New returns an empty simulator at time zero.
func New() *Simulator {
	return &Simulator{dueAt: -1}
}

// allFired is the firedRank of a completed step: it covers every rank.
const allFired = math.MaxInt32

// Now returns the current simulated time: the instant of the edge (or
// coincident group of edges) being processed or last processed.
func (s *Simulator) Now() Time { return s.now }

// TotalEdges returns the number of clock edges processed so far, a proxy
// for total simulation work across all domains: the sum of every clock's
// cycle count.
func (s *Simulator) TotalEdges() uint64 {
	var t uint64
	for _, c := range s.clocks {
		t += c.Cycle()
	}
	return t
}

// Clocks returns the simulator's clocks in creation order.
func (s *Simulator) Clocks() []*Clock {
	return append([]*Clock(nil), s.clocks...)
}

// Stop requests that the simulation stop after the current edge
// completes; no further edge runs. It is safe to call from threads,
// hooks and other goroutines, which is how a job's context ends a run:
//
//	defer context.AfterFunc(ctx, s.Stop)()
func (s *Simulator) Stop() { s.stopped.Store(true) }

// Close ends the simulation: it stops the simulator and retires every
// started, unfinished thread, running the body's deferred calls and
// recording no error; a method holds no coroutine and is left alone. A
// retired thread's coroutine and everything it references can then be
// collected. Close must be called from the goroutine that steps the
// kernel, not from a thread, method or hook, and only between steps; a
// second call does nothing.
func (s *Simulator) Close() {
	s.stopped.Store(true)
	for _, c := range s.clocks {
		for _, th := range c.threads {
			if th.started && !th.finished {
				th.stop()
			}
		}
	}
}

// Stopped reports whether Stop has been called.
func (s *Simulator) Stopped() bool { return s.stopped.Load() }

// Err returns the first error raised by a thread panic, if any.
func (s *Simulator) Err() error { return s.err }

// Metrics returns the simulator's metrics registry, creating it on first
// use. Components key their metrics by "/"-separated paths, with a
// bracketed index segment for replicated elements ("soc/pe[3]/inject");
// the kernel publishes its own counters under "sim".
func (s *Simulator) Metrics() *stats.Registry {
	if s.metrics == nil {
		s.metrics = stats.New()
		s.metrics.TreeSource(func(emit stats.EmitAt) {
			emit("sim", "total_edges", float64(s.TotalEdges()))
			emit("sim", "now_ps", float64(s.now))
			for _, c := range s.clocks {
				p := "sim/clk[" + c.name + "]"
				emit(p, "cycles", float64(c.Cycle()))
				emit(p, "period_ps", float64(c.period))
				emit(p, "processes", float64(len(c.threads)))
			}
		})
	}
	return s.metrics
}

// Arm attaches a handshake-event recorder to the simulation. Components
// that emit trace events cache their *trace.Subject handle at
// construction time, so Arm must be called before the design is built;
// arming after components exist leaves them untraced. Arming a nil
// recorder disarms. Tracing is pure observation: an armed simulation
// steps through exactly the same cycles as a disarmed one.
func (s *Simulator) Arm(r *trace.Recorder) { s.tracer = r }

// Tracer returns the armed handshake-event recorder, or nil when the
// simulation is disarmed. Component constructors use
//
//	sub := clk.Sim().Tracer().Subject(path)
//
// which yields a nil Subject when disarmed (Subject is nil-receiver
// safe), keeping every emission site a single pointer check.
func (s *Simulator) Tracer() *trace.Recorder { return s.tracer }

// Clock is a clock domain. Processes and threads attach to exactly one
// clock and observe its rising edges. All clocks of a simulator are
// stepped by one kernel goroutine, so the scheduling state is plain data.
type Clock struct {
	sim    *Simulator
	name   string
	period Time
	next   Time // time of next rising edge
	cycle  uint64

	// pausedUntil postpones edges (pausible clocking): while it lies
	// beyond next, the next edge fires at pausedUntil instead. A pause
	// that has passed stays set: it lies at or before the edge it last
	// postponed, below the next one, and Pause only ever raises it, so
	// NextEdge never sees it again.
	pausedUntil Time

	// now is the time of the clock's current (or most recent) rising
	// edge.
	now Time

	threads  []*thread
	monitors []namedHook

	// ready is the set of runnable slots, bit i of word i/64 for
	// threads[i]: a slot not yet started, counting down a WaitN, running
	// on every edge, or parked on a predicate that an event has notified
	// since it last evaluated false. The walk visits only these. A slot
	// falls asleep (its bit clears) when its predicate evaluates false or
	// it finishes, and Notify sets the bit of a parked one. An edge with
	// no runnable slot, nothing touched and no monitor does nothing but
	// count itself, so runEdgeAt skips it; skipped counts those edges.
	ready   []uint64
	skipped uint64

	// commits lists every commit hook in registration order, for
	// Processes; touched lists the hooks to commit this edge, its backing
	// array reused from edge to edge.
	commits []*OnTouch
	touched []*OnTouch

	// sealed is set from the start of an edge's commit phase to the end
	// of its monitor phase, where a touch is a bug.
	sealed bool

	// sleeping is set while the clock is out of the due scan: at the end
	// of an edge it had every slot asleep, nothing touched, no monitor
	// and no pending pause. Its edges then only count themselves, so
	// next, cycle, now, committed and skipped keep their values from
	// that edge, and the readers add the edges that have fired since
	// (fired). Whatever can make an edge do work calls wake first. The
	// three fields below fill the padding after sealed. Moving a Clock
	// field, or changing what inlines around the walk, has swung
	// soc-sync's rate by 6-9% with no change in the work done, so such a
	// change is measured on the benchmark, not assumed neutral.
	sleeping bool
	queued   bool  // on the simulator's wakes list
	rank     int32 // index in the simulator's name order

	// committed counts the commit phases completed so far.
	committed uint64
}

// namedHook is a phase callback with an introspectable identity; the
// name, never empty, is conventionally the owning component's path (plus
// a suffix when one component registers several hooks in a phase).
type namedHook struct {
	name string
	fn   func()
}

// AddClock creates a clock with the given period in picoseconds whose first
// rising edge occurs at phase ps after time zero.
func (s *Simulator) AddClock(name string, period, phase Time) *Clock {
	if period == 0 {
		panic("sim: zero clock period")
	}
	// Ranks change with the name order, and a sleeping clock's fired
	// edges are counted by rank: wake every clock first.
	for _, o := range s.clocks {
		if o.sleeping {
			o.wake()
		}
	}
	c := &Clock{sim: s, name: name, period: period, next: phase}
	s.clocks = append(s.clocks, c)
	s.orderedDirty = true
	return c
}

// Name returns the clock's name.
func (c *Clock) Name() string { return c.name }

// Period returns the current period in picoseconds.
func (c *Clock) Period() Time { return c.period }

// SetPeriod retunes the clock; the change takes effect from the next edge.
// Adaptive clock generators use this to track supply noise.
func (c *Clock) SetPeriod(p Time) {
	if p == 0 {
		panic("sim: zero clock period")
	}
	if c.sleeping {
		c.wake()
	}
	c.period = p
}

// Cycle returns the number of rising edges seen so far.
func (c *Clock) Cycle() uint64 {
	if c.sleeping {
		return c.cycle + c.fired()
	}
	return c.cycle
}

// Sim returns the owning simulator.
func (c *Clock) Sim() *Simulator { return c.sim }

// skippedEdges returns the number of idle edges the clock has skipped.
func (c *Clock) skippedEdges() uint64 {
	if c.sleeping {
		return c.skipped + c.fired()
	}
	return c.skipped
}

// Now returns the time of the clock's current (or most recent) rising
// edge. Inside the clock's edge it equals Simulator.Now.
func (c *Clock) Now() Time {
	if c.sleeping {
		return c.sleepingNow()
	}
	return c.now
}

// Pause postpones the clock's next rising edge until at least t. Pausible
// bisynchronous FIFOs use this to stretch a receiver clock while a
// synchronization conflict window is open. An edge already due at the
// instant of the pause still fires: the kernel fixes each step's due set
// before any edge runs, so the pause moves the edge after it.
func (c *Clock) Pause(until Time) {
	if until > c.pausedUntil {
		if c.sleeping {
			c.wake()
		}
		c.pausedUntil = until
	}
}

// NextEdge returns the time of the clock's next scheduled rising edge,
// including the effect of any pending pause. Pausible-clocking models
// use it to test a crossing against the edge that will actually sample
// it, which a naive now-modulo-period phase test gets wrong as soon as
// the clock has been paused or carries a phase offset.
func (c *Clock) NextEdge() Time {
	if c.sleeping {
		return c.sleepingNext()
	}
	return c.nextAwake()
}

// nextAwake is NextEdge of a clock that is not sleeping.
func (c *Clock) nextAwake() Time {
	if c.pausedUntil > c.next {
		return c.pausedUntil
	}
	return c.next
}

// fired returns how many edges a sleeping clock has passed since it fell
// asleep: those of its edges next, next+period, ... that the kernel's
// fired mark covers. It and the two helpers below stay out of line, so
// that on a clock that does not sleep every accessor inlines as a test
// and a field read.
//
//go:noinline
func (c *Clock) fired() uint64 {
	s := c.sim
	if c.next > s.now {
		return 0
	}
	d := s.now - c.next
	n := uint64(d / c.period)
	if d == Time(n)*c.period && c.rank > s.firedRank {
		// Its edge at now sorts after the clock that ran last.
		return n
	}
	return n + 1
}

// sleepingNow is Now of a sleeping clock.
//
//go:noinline
func (c *Clock) sleepingNow() Time {
	if f := c.fired(); f > 0 {
		return c.next + Time(f-1)*c.period
	}
	return c.now
}

// sleepingNext is NextEdge of a sleeping clock: it has no pause pending.
//
//go:noinline
func (c *Clock) sleepingNext() Time {
	return c.next + Time(c.fired())*c.period
}

// sleep takes the clock out of the due scan; see Clock.sleeping.
func (c *Clock) sleep() {
	c.sleeping = true
	c.sim.awake[c.rank>>6] &^= 1 << (c.rank & 63)
}

// wake lists a sleeping clock again at its first unfired edge, with its
// counts brought up to date. An edge at the current instant that sorts
// after the running clock has not fired: the clock joins this step's due
// list, in rank order, as it would have had it never slept.
func (c *Clock) wake() {
	s := c.sim
	if f := c.fired(); f > 0 {
		c.cycle += f
		c.committed += f
		c.skipped += f
		c.now = c.next + Time(f-1)*c.period
		c.next += Time(f) * c.period
	}
	c.sleeping = false
	s.awake[c.rank>>6] |= 1 << (c.rank & 63)
	if s.dueAt >= 0 && c.next == s.now {
		i := s.dueAt + 1
		for i < len(s.due) && s.due[i].rank < c.rank {
			i++
		}
		s.due = slices.Insert(s.due, i, c)
	}
}

// mustName panics when a process or hook is registered without a name:
// Processes and per-hook attribution tell them apart by name.
func mustName(kind, name string) {
	if name == "" {
		panic("sim: unnamed " + kind)
	}
}

// AtCommitNamed registers a named commit-phase (state-latch) hook that
// runs on every edge: an on-touch hook touched once and always run again.
func (c *Clock) AtCommitNamed(name string, f func()) {
	c.AtCommitOnTouch(name, func() bool { f(); return true }).Touch()
}

// OnTouch is the handle of a commit hook that runs only on edges it was
// touched in; see AtCommitOnTouch.
type OnTouch struct {
	clk    *Clock
	name   string
	fn     func() (again bool)
	listed bool
}

// AtCommitOnTouch registers a named commit hook that runs only on edges
// where the returned handle was touched. Touch lists the hook on this
// edge's commit list, once per edge; the commit phase runs the listed
// hooks in the order they were listed. A hook that returns again stays
// listed for the next edge, so state still draining (a skid, a delay
// line) keeps committing without being touched.
func (c *Clock) AtCommitOnTouch(name string, fn func() (again bool)) *OnTouch {
	mustName("commit hook", name)
	h := &OnTouch{clk: c, name: name, fn: fn}
	c.commits = append(c.commits, h)
	// Each hook is listed at most once per edge, so this capacity keeps
	// Touch from allocating.
	c.touched = slices.Grow(c.touched, len(c.commits))
	return h
}

// Touch lists the hook for the commit phase of its clock's current edge,
// or of the next edge when called between edges. A touch during the
// clock's own commit or monitor phase panics.
func (h *OnTouch) Touch() {
	if h.listed {
		return
	}
	if h.clk.sealed {
		panic(fmt.Sprintf("sim: commit hook %q touched in the commit or monitor phase of clock %q", h.name, h.clk.name))
	}
	if h.clk.sleeping {
		h.clk.wake()
	}
	h.listed = true
	h.clk.touched = append(h.clk.touched, h)
}

// Committed returns the number of commit phases the clock has completed.
// A read from a thread does not count the current edge; a read from a
// monitor hook does.
func (c *Clock) Committed() uint64 {
	if c.sleeping {
		return c.committed + c.fired()
	}
	return c.committed
}

// AtMonitorNamed registers a named observation-only hook that runs after
// commit.
func (c *Clock) AtMonitorNamed(name string, f func()) {
	mustName("monitor hook", name)
	if c.sleeping {
		c.wake()
	}
	c.monitors = append(c.monitors, namedHook{name: name, fn: f})
}

// Event is a notification source for parked threads. A thread parked
// with Thread.WaitOn re-evaluates its predicate only on edges after one
// of the events it named has notified, so whatever can change the
// predicate's outcome must notify one of those events.
//
// An Event must not be copied after a thread has parked on it: the
// first waiters live inline, so that parking allocates nothing.
type Event struct {
	waiters []*thread // every thread that ever parked on the event
	inline  [2]*thread
}

// Notify marks every thread that has parked on e for a predicate
// re-evaluation at its next scheduling slot: later in this edge's
// thread phase when the slot is still ahead, else on the next edge. It
// sets the slot's bit in its clock's ready set; a thread not parked on a
// predicate is runnable already. Waking an asleep thread wakes its
// clock, whatever clock notifies.
func (e *Event) Notify() {
	for _, th := range e.waiters {
		if th.parkPred != nil {
			c := th.clock
			c.ready[th.slot>>6] |= 1 << (th.slot & 63)
			if c.sleeping && !c.queued {
				// The clock wakes once the running edge ends.
				c.queued = true
				c.sim.wakes = append(c.sim.wakes, c)
			}
		}
	}
}

// wakeQueued wakes the sleeping clocks that Notify queued. Their edges
// stay idle until the running edge ends, so waking them then is the same
// as waking them at the notify, and Notify stays a few stores that
// inline into every channel operation.
func (s *Simulator) wakeQueued() {
	for _, c := range s.wakes {
		c.queued = false
		if c.sleeping {
			c.wake()
		}
	}
	s.wakes = s.wakes[:0]
}

// register adds th to e's waiters unless it is already there.
func (e *Event) register(th *thread) {
	for _, w := range e.waiters {
		if w == th {
			return
		}
	}
	if e.waiters == nil {
		e.waiters = e.inline[:0]
	}
	e.waiters = append(e.waiters, th)
}

// ProcessInfo describes one registered process or hook for introspection.
type ProcessInfo struct {
	Clock string // owning clock's name
	Phase string // "thread", "method", "commit", or "monitor"
	Name  string // process or hook name, never empty
}

// Processes returns every process and hook registered on the clock, in
// phase then registration order; threads and methods share the first
// phase, in slot order.
func (c *Clock) Processes() []ProcessInfo {
	var out []ProcessInfo
	for _, th := range c.threads {
		phase := "thread"
		if th.step != nil {
			phase = "method"
		}
		out = append(out, ProcessInfo{Clock: c.name, Phase: phase, Name: th.name})
	}
	for _, h := range c.commits {
		out = append(out, ProcessInfo{Clock: c.name, Phase: "commit", Name: h.name})
	}
	for _, h := range c.monitors {
		out = append(out, ProcessInfo{Clock: c.name, Phase: "monitor", Name: h.name})
	}
	return out
}

// Processes returns every process and hook in the simulation across all
// clocks, in clock registration order.
func (s *Simulator) Processes() []ProcessInfo {
	var out []ProcessInfo
	for _, c := range s.clocks {
		out = append(out, c.Processes()...)
	}
	return out
}

// recordPanic stops the simulation and records err; the first recorded
// error wins.
func (s *Simulator) recordPanic(err error) {
	if s.err == nil {
		s.err = err
	}
	s.stopped.Store(true)
}

// idle reports whether no slot of c is runnable.
func (c *Clock) idle() bool {
	for _, w := range c.ready {
		if w != 0 {
			return false
		}
	}
	return true
}

// runEdgeAt executes one full rising edge of c at instant t.
func (c *Clock) runEdgeAt(t Time) {
	c.now = t
	c.cycle++

	// An idle edge — no runnable slot, no commit listed, no monitor —
	// would run nothing and change nothing: skip to its bookkeeping.
	if len(c.touched) == 0 && len(c.monitors) == 0 && c.idle() {
		c.skipped++
		c.committed++
		c.next = t + c.period
		return
	}

	// Phase 1: threads and methods, in registration order, visiting only
	// the runnable slots. Parked processes are serviced at their slot
	// without a coroutine switch or a step call; a WaitOn predicate is
	// evaluated only when one of its events has notified since its last
	// evaluation. A method needs no starting, and the walk calls its step
	// where it resumes a thread. The walk re-reads the word it is in after
	// each slot, so a slot ahead that a notify marks runs this edge; slots
	// registered during the edge wait for the next.
	slots := len(c.threads)
	for w := 0; w<<6 < slots; w++ {
		for ahead := ^uint64(0); ; {
			word := c.ready[w] & ahead
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			i := w<<6 | b
			if i >= slots {
				break
			}
			ahead = ^uint64(0) << b << 1
			th := c.threads[i]
			if !th.started {
				th.start()
			} else if th.parkN > 0 {
				if th.parkN--; th.parkN > 0 {
					continue
				}
			} else if th.parkPred != nil {
				if !th.parkPred() {
					c.ready[w] &^= 1 << b
					continue
				}
				th.parkPred = nil
			}
			if th.step != nil {
				th.runStep()
			} else {
				th.next()
			}
			if th.finished {
				c.ready[w] &^= 1 << b
			}
		}
	}

	// Phase 2: commit. The hooks listed for this edge run; those that
	// ask to run again stay listed, compacted in place.
	c.sealed = true
	n := 0
	for _, h := range c.touched {
		if h.fn() {
			c.touched[n] = h
			n++
		} else {
			h.listed = false
		}
	}
	c.touched = c.touched[:n]
	c.committed++

	// Phase 3: monitors.
	for i := range c.monitors {
		c.monitors[i].fn()
	}
	c.sealed = false
	c.next = t + c.period
}

// reorder sorts the clocks by name, ranks them and rebuilds the awake
// set. AddClock wakes every clock before it marks the order dirty, so a
// clock asleep across a change of ranks fell asleep after it, with its
// next edge after now, where its rank does not count.
func (s *Simulator) reorder() {
	s.ordered = append(s.ordered[:0], s.clocks...)
	sort.Slice(s.ordered, func(i, j int) bool { return s.ordered[i].name < s.ordered[j].name })
	s.awake = make([]uint64, (len(s.ordered)+63)/64)
	for r, c := range s.ordered {
		c.rank = int32(r)
		if !c.sleeping {
			s.awake[r>>6] |= 1 << (r & 63)
		}
	}
	s.orderedDirty = false
}

// nextDue finds, in one pass over the awake clocks in name order, the
// earliest pending edge time (Infinity when every clock sleeps) and
// collects the clocks due then into s.due. Run, Step and RunCycles share
// it.
func (s *Simulator) nextDue() Time {
	if s.orderedDirty {
		s.reorder()
	}
	if len(s.wakes) > 0 {
		s.wakeQueued()
	}
	t := Infinity
	due := s.due[:0]
	for w, word := range s.awake {
		for word != 0 {
			c := s.ordered[w<<6|bits.TrailingZeros64(word)]
			word &= word - 1
			e := c.nextAwake()
			if e < t {
				t = e
				due = due[:0]
			}
			if e == t {
				due = append(due, c)
			}
		}
	}
	s.due = due
	return t
}

// stepDue fires the clocks nextDue collected, at their edge time t, in
// stable name order for reproducibility independent of registration
// order. The due set is fixed before any edge runs: a clock paused by
// another clock's edge at t still fires this step (its postponement
// affects the following edge), matching pausible-clocking semantics. A
// sleeping clock woken during the step joins it when its edge at t sorts
// after the running clock (Clock.wake); a clock that ends its edge idle
// falls asleep. A Stop leaves the edges at t of the clocks after the
// running one unfired.
func (s *Simulator) stepDue(t Time) bool {
	s.now = t
	for i := 0; i < len(s.due) && !s.stopped.Load(); i++ {
		c := s.due[i]
		s.dueAt, s.firedRank = i, c.rank
		c.runEdgeAt(t)
		if len(s.wakes) > 0 {
			s.wakeQueued()
		}
		if len(c.touched) == 0 && len(c.monitors) == 0 && c.pausedUntil <= c.next && c.idle() {
			c.sleep()
		}
	}
	s.dueAt = -1
	if s.stopped.Load() {
		return false
	}
	s.firedRank = allFired
	return true
}

// skipTo passes every edge up to and including t, which no awake clock
// has, as idle edges of the sleeping clocks.
func (s *Simulator) skipTo(t Time) {
	s.now, s.firedRank = t, allFired
}

// Step advances to the next instant at which an awake clock has an edge
// (or coincident group of edges) and processes it; the edges that
// sleeping clocks pass on the way are not steps. When every clock
// sleeps, it passes the earliest idle edge. It returns false when there
// are no clocks or the simulator has stopped.
func (s *Simulator) Step() bool {
	if s.stopped.Load() || len(s.clocks) == 0 {
		return false
	}
	if len(s.clocks) == 1 {
		// Single-clock fast path: no scan, no due list.
		c := s.clocks[0]
		s.now = c.nextAwake()
		c.runEdgeAt(s.now)
		return !s.stopped.Load()
	}
	t := s.nextDue()
	if t == Infinity {
		for _, c := range s.ordered {
			t = min(t, c.NextEdge())
		}
		s.skipTo(t)
		return true
	}
	return s.stepDue(t)
}

// Run advances the simulation until maxTime (exclusive) or Stop.
func (s *Simulator) Run(maxTime Time) {
	if len(s.clocks) == 1 {
		// Single-clock fast path: one edge-time comparison per step.
		c := s.clocks[0]
		for !s.stopped.Load() {
			t := c.nextAwake()
			if t >= maxTime {
				return
			}
			s.now = t
			c.runEdgeAt(t)
		}
		return
	}
	for !s.stopped.Load() {
		t := s.nextDue()
		if t >= maxTime {
			// The edges left before maxTime are idle ones of sleeping
			// clocks: pass them up to the last.
			last, found := Time(0), false
			for _, c := range s.ordered {
				if !c.sleeping {
					continue
				}
				if e := c.NextEdge(); e < maxTime {
					last, found = max(last, e+(maxTime-1-e)/c.period*c.period), true
				}
			}
			if found {
				s.skipTo(last)
			}
			return
		}
		if !s.stepDue(t) {
			return
		}
	}
}

// RunCycles runs until clock c has advanced n more rising edges, or
// Stop. It steps like Step, except that when c sleeps and its last edge
// comes before the next awake one, it passes straight to that edge, so
// the run ends on c's edge as it would had every idle edge been a step.
func (s *Simulator) RunCycles(c *Clock, n uint64) {
	target := c.Cycle() + n
	if len(s.clocks) == 1 {
		for c.cycle < target && s.Step() {
		}
		return
	}
	for c.Cycle() < target && !s.stopped.Load() {
		t := s.nextDue()
		if c.sleeping {
			if e := c.next + Time(target-c.cycle-1)*c.period; e < t {
				s.skipTo(e)
				return
			}
		}
		if !s.stepDue(t) {
			return
		}
	}
}
