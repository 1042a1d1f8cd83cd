package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Time is simulated time in picoseconds.
type Time uint64

// Infinity is a time later than any event.
const Infinity Time = math.MaxUint64

// Simulator owns clocks, threads, components, and simulated time.
type Simulator struct {
	clocks []*Clock
	now    Time
	// stopped is atomic so that Stop may be called from a goroutine
	// other than the one stepping the kernel.
	stopped atomic.Bool
	err     error

	// ordered caches s.clocks sorted by name for deterministic coincident
	// edge firing; due is the reusable scratch list of clocks firing at
	// the current step.
	ordered      []*Clock
	orderedDirty bool
	due          []*Clock

	metrics *stats.Registry
	root    *Component
	comps   map[string]*Component
	design  *Design

	tracer *trace.Recorder
}

// New returns an empty simulator at time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time: the instant of the edge (or
// coincident group of edges) being processed or last processed.
func (s *Simulator) Now() Time { return s.now }

// TotalEdges returns the number of clock edges processed so far, a proxy
// for total simulation work across all domains: the sum of every clock's
// cycle count.
func (s *Simulator) TotalEdges() uint64 {
	var t uint64
	for _, c := range s.clocks {
		t += c.cycle
	}
	return t
}

// Clocks returns the simulator's clocks in creation order.
func (s *Simulator) Clocks() []*Clock {
	return append([]*Clock(nil), s.clocks...)
}

// Stop requests that the simulation stop after the current edge completes;
// no further edge runs until the stop is cleared (Drain steps past it). It
// is safe to call from threads, hooks and other goroutines.
func (s *Simulator) Stop() { s.stopped.Store(true) }

// Stopped reports whether Stop has been called.
func (s *Simulator) Stopped() bool { return s.stopped.Load() }

// Err returns the first error raised by a thread panic, if any.
func (s *Simulator) Err() error { return s.err }

// Metrics returns the simulator's metrics registry, creating it on first
// use. The kernel publishes its own counters under the "sim" component.
func (s *Simulator) Metrics() *stats.Registry {
	if s.metrics == nil {
		s.metrics = stats.New()
		s.metrics.TreeSource(func(emit stats.EmitAt) {
			emit("sim", "total_edges", float64(s.TotalEdges()))
			emit("sim", "now_ps", float64(s.now))
			for _, c := range s.clocks {
				p := "sim/clk[" + c.name + "]"
				emit(p, "cycles", float64(c.cycle))
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

// Component is a node in the design hierarchy. Paths are "/"-separated
// segments from the root ("soc/pe[3]/inject"); replicated elements use a
// bracketed index segment. Components key the metrics registry and give
// threads and hooks an introspectable home.
type Component struct {
	sim      *Simulator
	parent   *Component
	name     string // final path segment; "" for the root
	path     string // full path; "" for the root
	children map[string]*Component
	order    []string // child names in creation order
}

// Root returns the root of the component tree, creating it on first use.
func (s *Simulator) Root() *Component {
	if s.root == nil {
		s.root = &Component{sim: s, children: make(map[string]*Component)}
		s.comps = map[string]*Component{"": s.root}
	}
	return s.root
}

// Component returns the component at path, creating it (and any missing
// ancestors) on first use. The empty path names the root.
func (s *Simulator) Component(path string) *Component {
	c := s.Root()
	if path == "" {
		return c
	}
	if got, ok := s.comps[path]; ok {
		return got
	}
	for _, seg := range strings.Split(path, "/") {
		c = c.Child(seg)
	}
	return c
}

// Lookup returns the component at path without creating it.
func (s *Simulator) Lookup(path string) (*Component, bool) {
	if s.comps == nil {
		return nil, false
	}
	c, ok := s.comps[path]
	return c, ok
}

// Child returns the direct child with the given name, creating it on
// first use. Names must be non-empty and must not contain "/".
func (c *Component) Child(name string) *Component {
	if name == "" || strings.Contains(name, "/") {
		panic(fmt.Sprintf("sim: bad component name %q", name))
	}
	if got, ok := c.children[name]; ok {
		return got
	}
	path := name
	if c.path != "" {
		path = c.path + "/" + name
	}
	child := &Component{
		sim:      c.sim,
		parent:   c,
		name:     name,
		path:     path,
		children: make(map[string]*Component),
	}
	c.children[name] = child
	c.order = append(c.order, name)
	c.sim.comps[path] = child
	return child
}

// Name returns the component's final path segment ("" for the root).
func (c *Component) Name() string { return c.name }

// Path returns the component's full hierarchical path ("" for the root).
func (c *Component) Path() string { return c.path }

// Parent returns the enclosing component (nil for the root).
func (c *Component) Parent() *Component { return c.parent }

// Children returns the direct children in creation order.
func (c *Component) Children() []*Component {
	out := make([]*Component, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, c.children[n])
	}
	return out
}

// Walk visits c and every descendant in creation order.
func (c *Component) Walk(fn func(*Component)) {
	fn(c)
	for _, n := range c.order {
		c.children[n].Walk(fn)
	}
}

// Counter returns the metric counter (c.Path(), name).
func (c *Component) Counter(name string) *stats.Counter {
	return c.sim.Metrics().Counter(c.path, name)
}

// Gauge returns the metric gauge (c.Path(), name).
func (c *Component) Gauge(name string) *stats.Gauge {
	return c.sim.Metrics().Gauge(c.path, name)
}

// Source registers a snapshot-time metrics callback under the
// component's path.
func (c *Component) Source(fn func(stats.Emit)) {
	c.sim.Metrics().Source(c.path, fn)
}

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
	// beyond next, the next edge fires at pausedUntil instead.
	pausedUntil Time

	// now is the time of the clock's current (or most recent) rising
	// edge.
	now Time

	threads  []*thread
	drives   []namedHook
	resolves []namedResolver
	monitors []namedHook

	// commits lists every commit hook in registration order, for
	// Processes; on-touch hooks appear with a nil fn. everyEdge holds the
	// hooks that run on every edge, and touched the on-touch hooks listed
	// for this edge, its backing array reused from edge to edge.
	commits   []namedHook
	everyEdge []func()
	touched   []*OnTouch

	// sealed is set from the start of an edge's commit phase to the end
	// of its monitor phase, where a touch is a bug; committed counts the
	// commit phases completed so far.
	sealed    bool
	committed uint64
}

// namedHook is a phase callback with an introspectable identity; the
// name is conventionally the owning component's path (plus a suffix when
// one component registers several hooks in a phase).
type namedHook struct {
	name string
	fn   func()
}

type namedResolver struct {
	name string
	fn   func() bool
}

// AddClock creates a clock with the given period in picoseconds whose first
// rising edge occurs at phase ps after time zero.
func (s *Simulator) AddClock(name string, period, phase Time) *Clock {
	if period == 0 {
		panic("sim: zero clock period")
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
	c.period = p
}

// Cycle returns the number of rising edges seen so far.
func (c *Clock) Cycle() uint64 { return c.cycle }

// Sim returns the owning simulator.
func (c *Clock) Sim() *Simulator { return c.sim }

// Now returns the time of the clock's current (or most recent) rising
// edge. Inside the clock's edge it equals Simulator.Now.
func (c *Clock) Now() Time { return c.now }

// Pause postpones the clock's next rising edge until at least t. Pausible
// bisynchronous FIFOs use this to stretch a receiver clock while a
// synchronization conflict window is open. An edge already due at the
// instant of the pause still fires: the kernel fixes each step's due set
// before any edge runs, so the pause moves the edge after it.
func (c *Clock) Pause(until Time) {
	if until > c.pausedUntil {
		c.pausedUntil = until
	}
}

// nextEdge returns the effective time of the next rising edge: the
// scheduled edge, or the pause deadline when a pause covers it.
func (c *Clock) nextEdge() Time {
	if c.pausedUntil > c.next {
		return c.pausedUntil
	}
	return c.next
}

// NextEdge returns the time of the clock's next scheduled rising edge,
// including the effect of any pending pause. Pausible-clocking models
// use it to test a crossing against the edge that will actually sample
// it, which a naive now-modulo-period phase test gets wrong as soon as
// the clock has been paused or carries a phase offset.
func (c *Clock) NextEdge() Time { return c.nextEdge() }

// AtDrive registers f to run in the drive phase of every edge.
func (c *Clock) AtDrive(f func()) { c.AtDriveNamed("", f) }

// AtDriveNamed registers a named drive-phase hook.
func (c *Clock) AtDriveNamed(name string, f func()) {
	c.drives = append(c.drives, namedHook{name: name, fn: f})
}

// AtResolve registers f in the combinational resolve phase. f must return
// true if it changed any visible signal; the kernel iterates all resolvers
// until a full pass makes no changes.
func (c *Clock) AtResolve(f func() bool) { c.AtResolveNamed("", f) }

// AtResolveNamed registers a named resolve-phase hook.
func (c *Clock) AtResolveNamed(name string, f func() bool) {
	c.resolves = append(c.resolves, namedResolver{name: name, fn: f})
}

// AtCommit registers f to run in the commit (state-latch) phase.
func (c *Clock) AtCommit(f func()) { c.AtCommitNamed("", f) }

// AtCommitNamed registers a named commit-phase hook that runs on every
// edge.
func (c *Clock) AtCommitNamed(name string, f func()) {
	c.commits = append(c.commits, namedHook{name: name, fn: f})
	c.everyEdge = append(c.everyEdge, f)
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
// edge's commit list, once per edge; phase 4 runs the every-edge hooks
// and then the listed ones. A hook that returns again stays listed for
// the next edge, so state still draining (a skid, a delay line) keeps
// committing without being touched.
func (c *Clock) AtCommitOnTouch(name string, fn func() (again bool)) *OnTouch {
	c.commits = append(c.commits, namedHook{name: name})
	// Each hook is listed at most once per edge, so this capacity keeps
	// Touch from allocating.
	c.touched = slices.Grow(c.touched, len(c.commits))
	return &OnTouch{clk: c, name: name, fn: fn}
}

// Touch lists the hook for the commit phase of its clock's current edge,
// or of the next edge when called between edges. Only threads, drive and
// resolve hooks may touch: a touch during the clock's own commit or
// monitor phase panics.
func (h *OnTouch) Touch() {
	if h.listed {
		return
	}
	if h.clk.sealed {
		panic(fmt.Sprintf("sim: commit hook %q touched in the commit or monitor phase of clock %q", h.name, h.clk.name))
	}
	h.listed = true
	h.clk.touched = append(h.clk.touched, h)
}

// Committed returns the number of commit phases the clock has completed.
// A read during phases 1-3 of an edge does not count that edge; a read
// from a monitor hook does.
func (c *Clock) Committed() uint64 { return c.committed }

// AtMonitor registers an observation-only hook that runs after commit.
func (c *Clock) AtMonitor(f func()) { c.AtMonitorNamed("", f) }

// AtMonitorNamed registers a named monitor-phase hook.
func (c *Clock) AtMonitorNamed(name string, f func()) {
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
// thread phase when the slot is still ahead, else on the next edge.
func (e *Event) Notify() {
	for _, th := range e.waiters {
		th.woken = true
	}
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
	Phase string // "thread", "drive", "resolve", "commit", or "monitor"
	Name  string // process name; "" for an anonymous hook
}

// Processes returns every process and hook registered on the clock, in
// phase then registration order.
func (c *Clock) Processes() []ProcessInfo {
	var out []ProcessInfo
	for _, th := range c.threads {
		out = append(out, ProcessInfo{Clock: c.name, Phase: "thread", Name: th.name})
	}
	for _, h := range c.drives {
		out = append(out, ProcessInfo{Clock: c.name, Phase: "drive", Name: h.name})
	}
	for _, h := range c.resolves {
		out = append(out, ProcessInfo{Clock: c.name, Phase: "resolve", Name: h.name})
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

// runEdgeAt executes one full rising edge of c at instant t.
func (c *Clock) runEdgeAt(t Time) {
	c.now = t
	c.cycle++

	// Phase 1: threads, in registration order. Parked threads are
	// serviced at their slot without a coroutine switch; a WaitOn
	// predicate is evaluated only when one of its events has notified
	// since its last evaluation.
	for _, th := range c.threads {
		if th.finished {
			continue
		}
		if !th.started {
			th.start()
		} else if th.parkN > 0 {
			if th.parkN--; th.parkN > 0 {
				continue
			}
		} else if th.parkPred != nil {
			if !th.woken {
				continue
			}
			th.woken = false
			if !th.parkPred() {
				continue
			}
			th.parkPred = nil
		}
		th.next()
	}

	// Phase 2: drive.
	for i := range c.drives {
		c.drives[i].fn()
	}

	// Phase 3: combinational resolve to fixpoint.
	if len(c.resolves) > 0 {
		limit := len(c.resolves)*len(c.resolves) + 16
		for iter := 0; ; iter++ {
			changed := false
			for i := range c.resolves {
				if c.resolves[i].fn() {
					changed = true
				}
			}
			if !changed {
				break
			}
			if iter > limit {
				panic(fmt.Sprintf("sim: combinational loop on clock %q did not converge", c.name))
			}
		}
	}

	// Phase 4: commit. The every-edge hooks run first, then the hooks
	// touched this edge; those that ask to run again stay listed,
	// compacted in place.
	c.sealed = true
	for _, f := range c.everyEdge {
		f()
	}
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

	// Phase 5: monitors.
	for i := range c.monitors {
		c.monitors[i].fn()
	}
	c.sealed = false

	c.next = t + c.period
	if c.pausedUntil != 0 && c.pausedUntil <= t {
		c.pausedUntil = 0
	}
}

// nextEventTime returns the earliest pending edge time across all clocks
// (Infinity when there are none). Run and Step share this scan.
func (s *Simulator) nextEventTime() Time {
	t := Infinity
	for _, c := range s.clocks {
		if e := c.nextEdge(); e < t {
			t = e
		}
	}
	return t
}

// stepAt fires every clock whose edge is due at t, in stable name order
// for reproducibility independent of registration order.
func (s *Simulator) stepAt(t Time) bool {
	s.now = t
	if s.orderedDirty {
		s.ordered = append(s.ordered[:0], s.clocks...)
		sort.Slice(s.ordered, func(i, j int) bool { return s.ordered[i].name < s.ordered[j].name })
		s.orderedDirty = false
	}
	// The due set is fixed before any edge runs: a clock paused by
	// another clock's edge at t still fires this step (its postponement
	// affects the following edge), matching pausible-clocking semantics.
	due := s.due[:0]
	for _, c := range s.ordered {
		if c.nextEdge() == t {
			due = append(due, c)
		}
	}
	s.due = due
	for _, c := range due {
		if s.stopped.Load() {
			break
		}
		c.runEdgeAt(t)
	}
	return !s.stopped.Load()
}

// Step advances to the next clock edge (or coincident group of edges) and
// processes it. It returns false when there are no clocks or the simulator
// has stopped.
func (s *Simulator) Step() bool {
	if s.stopped.Load() || len(s.clocks) == 0 {
		return false
	}
	if len(s.clocks) == 1 {
		// Single-clock fast path: no scan, no due list.
		c := s.clocks[0]
		s.now = c.nextEdge()
		c.runEdgeAt(s.now)
		return !s.stopped.Load()
	}
	t := s.nextEventTime()
	if t == Infinity {
		return false
	}
	return s.stepAt(t)
}

// Run advances the simulation until maxTime (exclusive) or Stop.
func (s *Simulator) Run(maxTime Time) {
	if len(s.clocks) == 1 {
		// Single-clock fast path: one edge-time comparison per step.
		c := s.clocks[0]
		for !s.stopped.Load() {
			t := c.nextEdge()
			if t >= maxTime {
				return
			}
			s.now = t
			c.runEdgeAt(t)
		}
		return
	}
	for !s.stopped.Load() {
		t := s.nextEventTime()
		if t >= maxTime {
			return
		}
		if !s.stepAt(t) {
			return
		}
	}
}

// RunCycles runs until clock c has advanced n more rising edges, or Stop.
func (s *Simulator) RunCycles(c *Clock, n uint64) {
	target := c.cycle + n
	for c.cycle < target && s.Step() {
	}
}

// Drain retires all threads by resuming them until they finish, bounded by
// limit edges. It is used by tests to shut a simulation down cleanly; a
// thread that never returns is simply abandoned when the test ends.
//
// Draining steps past a pending Stop, but the stop request is not lost: a
// simulator stopped before (or during) Drain is still stopped when it
// returns.
func (s *Simulator) Drain(limit uint64) {
	wasStopped := s.stopped.Load()
	defer func() {
		if wasStopped {
			s.stopped.Store(true)
		}
	}()
	for i := uint64(0); i < limit; i++ {
		alive := false
		for _, c := range s.clocks {
			for _, th := range c.threads {
				if th.started && !th.finished {
					alive = true
				}
			}
		}
		if !alive {
			return
		}
		s.stopped.Store(false)
		if !s.Step() {
			return
		}
	}
}
