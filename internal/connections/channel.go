package connections

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Mode selects the port-operation cost model of a channel.
type Mode int

const (
	// ModeSimAccurate is the helper-process buffered model whose elapsed
	// cycles match RTL throughput.
	ModeSimAccurate Mode = iota
	// ModeSignalAccurate charges one Wait per port operation, like the
	// synthesizable SystemC handshake routines run under a sequential
	// simulator.
	ModeSignalAccurate
	// ModeRTLCosim adds pipeline-register latency and bit-level message
	// packing work to every transfer.
	ModeRTLCosim
)

// ParseMode maps a channel-model name as the tools spell it (tlm,
// signal or rtl) to its Mode.
func ParseMode(name string) (Mode, bool) {
	switch name {
	case "tlm":
		return ModeSimAccurate, true
	case "signal":
		return ModeSignalAccurate, true
	case "rtl":
		return ModeRTLCosim, true
	}
	return ModeSimAccurate, false
}

func (m Mode) String() string {
	switch m {
	case ModeSimAccurate:
		return "sim-accurate"
	case ModeSignalAccurate:
		return "signal-accurate"
	case ModeRTLCosim:
		return "rtl-cosim"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Kind is the channel implementation selected at integration time
// (Figure 2 of the paper).
type Kind int

const (
	// KindCombinational connects ports with flow-through coupling in both
	// directions and a single skid entry of storage.
	KindCombinational Kind = iota
	// KindBypass enables dequeue in the cycle an enqueue arrives to an
	// empty channel (valid→consumer combinational path).
	KindBypass
	// KindPipeline enables enqueue into a full channel in the cycle a
	// dequeue frees it (ready←consumer combinational path).
	KindPipeline
	// KindBuffer is a plain FIFO channel of configurable depth.
	KindBuffer
)

func (k Kind) String() string {
	switch k {
	case KindCombinational:
		return "Combinational"
	case KindBypass:
		return "Bypass"
	case KindPipeline:
		return "Pipeline"
	case KindBuffer:
		return "Buffer"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Stats accumulates per-channel traffic counters.
type Stats struct {
	Transfers    uint64 // messages delivered to the consumer side
	PushAttempts uint64
	PushFails    uint64 // attempts rejected (full or ready withheld)
	PopAttempts  uint64
	PopFails     uint64 // attempts rejected (empty or valid withheld)
	StallCycles  uint64 // cycles with an injected stall active
	OccupancySum uint64 // sum over cycles of committed occupancy
	Cycles       uint64 // cycles observed
}

// MeanOccupancy returns the time-average committed occupancy.
func (s Stats) MeanOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.OccupancySum) / float64(s.Cycles)
}

// Option configures a channel at bind time.
type Option func(*options)

type options struct {
	mode       Mode
	latency    int // extra pipeline-register stages (retiming registers)
	stall      float64
	stallSeed  int64
	terminated bool
}

// WithMode selects the port-operation cost model.
func WithMode(m Mode) Option { return func(o *options) { o.mode = m } }

// ModeOf returns the port-operation cost model that opts select: the
// mode of a channel bound with them. A component that drives its ports
// from a method process (sim.Clock.Method) reads it to know whether its
// port operations charge a Wait.
func ModeOf(opts ...Option) Mode {
	var o options
	for _, f := range opts {
		f(&o)
	}
	return o.mode
}

// WithLatency inserts n retiming-register stages into the channel, the
// paper's mechanism for easing timing pressure on inter-unit interfaces.
func WithLatency(n int) Option {
	return func(o *options) {
		if n < 0 {
			panic("connections: negative latency")
		}
		o.latency = n
	}
}

// WithStall enables random stall injection: each cycle, valid is withheld
// from the consumer with probability p and, independently, ready is
// withheld from the producer with probability p. p is meant to lie in
// [0,1), the range socsim and serve accept: at 1 or above every edge
// stalls and no message ever moves, and at 0, below it or NaN no edge
// does. The seed keeps runs reproducible: a channel's stalls are the
// stream of math/rand seeded with seed ^ FNV-64a(name), two draws per
// edge (valid, then ready), each a stall when Rand.Float64() < p. The
// channel draws them from an in-package copy of math/rand's source that
// gives the same values.
//
// A stalled channel sleeps while no port can see its stalls: while it
// holds no message and no producer waits on a refused push. It then
// neither commits nor draws. The first push, producer-side readiness
// check or Stats after a sleep draws the rolls of the edges slept
// through, counting their stall cycles as those edges' commits would
// have, so the stream and every counter match a channel that committed
// on every edge.
func WithStall(p float64, seed int64) Option {
	return func(o *options) {
		o.stall = p
		o.stallSeed = seed
	}
}

// Terminator marks the channel as an intentional stub — an edge port
// tied off with no component on the far side. The static lint pass
// exempts terminated channels from the dangling-endpoint rule (CON-2)
// and excludes them from cycle analysis.
func Terminator() Option { return func(o *options) { o.terminated = true } }

// core is the shared channel implementation behind every kind.
type core[T any] struct {
	// The state the port checks read (peek, canPop, canPush) comes
	// first, so that a check touches few cache lines.
	queue        []T // committed contents, front at index 0
	stagedPops   int // committed entries consumed this cycle
	bypassTaken  int // skid entries consumed via the bypass path this cycle
	stalledValid bool
	stalledReady bool

	// skid is the producer-side output buffer of the paper's sim-accurate
	// model: a push lands here and the channel's commit process transmits
	// it downstream when capacity allows. It holds at most one message,
	// matching the one-transfer-per-cycle rate of a hardware port.
	skid []T

	clk  *sim.Clock
	name string
	kind Kind
	mode Mode
	cap  int

	// Pipeline-register delay line for latency > 0 / RTL mode.
	latency     int
	inflightBuf []inflight[T]

	// Stall injection; stalledValid and stalledReady above are its
	// current roll. The stream, which holds the threshold that pStall
	// sets, is seeded on first use (see roll).
	rng       *stallStream
	pStall    float64
	stallSeed int64

	// sleeps marks a stall-injected channel that stays listed only while
	// a port can see its stalls: while it holds a message, or while
	// pushWait records that the last producer-side readiness check found
	// ready withheld (see readyToPush). Armed and RTL-cosim channels
	// never sleep, since their monitor and wire image read the stall
	// bits on every edge.
	sleeps   bool
	pushWait bool

	pack func(any) bitvec.Vec

	// Cached parking predicates so blocking port ops don't allocate a
	// bound-method closure per call.
	popReady  func() bool
	pushReady func() bool

	// Activity. A successful push or pop touches the commit hook, which
	// then runs on this edge and stays listed while the skid or delay
	// line holds messages (every edge when runsEachEdge holds; a stalled
	// channel also while its queue holds messages or a producer waits,
	// see sleeps). ev notifies port threads parked on the
	// predicates above of every push, pop and state-changing commit; evs
	// is ev as the slice they park on.
	touch *sim.OnTouch
	ev    sim.Event
	evs   [1]*sim.Event

	// watch, when set (In.Watch), gets watchBit at every notifying
	// commit: the consumer's mark that what peek returns may have changed.
	watch    *uint64
	watchBit uint64

	// synced is the clock's completed-commit count that stats.Cycles,
	// stats.OccupancySum and the stall stream cover. The edges since
	// were idle — the channel was not listed, so its committed queue
	// held — and catchUp accounts them.
	synced uint64

	// RTL-cosim per-cycle signal evaluation state: the channel's wire
	// image (head message bits plus handshake bits) is recomputed every
	// cycle and toggles are accumulated, modelling what an RTL simulator
	// does for every net and what an FSDB activity trace records.
	rtlSigs    bitvec.Vec
	rtlToggles uint64

	// Handshake-event tracing. sub is nil unless the simulator was armed
	// (sim.Simulator.Arm) before the channel was bound; every emission
	// site nil-checks it, so the disarmed fast path costs one predictable
	// branch. The tLast* fields are the change detectors of the armed
	// per-cycle monitor hook, which is not even registered when disarmed.
	sub                    *trace.Subject
	tInit                  bool
	tLastValid, tLastReady uint64
	tLastOcc, tLastStall   uint64

	stats Stats
	bound bool
}

func newCore[T any](clk *sim.Clock, name string, kind Kind, capacity int, o *options) *core[T] {
	if clk == nil {
		panic("connections: nil clock for channel " + name)
	}
	if capacity < 1 {
		// The declared depth stays visible in the design graph (Bind
		// records it before this clamp, and lint CON-3 reports it as an
		// error); the runtime keeps one slot so elaboration can finish and
		// the design can be linted instead of dying mid-construction.
		capacity = 1
	}
	c := &core[T]{
		clk:       clk,
		name:      name,
		kind:      kind,
		mode:      o.mode,
		cap:       capacity,
		latency:   o.latency,
		pStall:    o.stall,
		stallSeed: o.stallSeed,
	}
	if c.mode == ModeRTLCosim && c.latency == 0 {
		c.latency = 1 // HLS-generated RTL always has at least one pipe stage
	}
	// Packable message types give RTL-cosim channels bit-level work.
	var zero T
	if _, ok := any(zero).(Packable); ok {
		c.pack = func(v any) bitvec.Vec { return v.(Packable).PackBits() }
	}
	c.sub = clk.Sim().Tracer().Subject(name)
	c.sleeps = c.pStall > 0 && !c.runsEachEdge()
	c.popReady = c.canPop
	if c.sleeps {
		c.pushReady = c.readyToPush
	} else {
		c.pushReady = c.canPush
	}
	c.evs[0] = &c.ev
	if c.sub != nil {
		// Armed only: the per-cycle valid/ready/occupancy monitor exists
		// solely when a recorder is attached, so a disarmed simulation
		// schedules exactly the hooks it did before tracing existed.
		clk.AtMonitorNamed(name+"/trace", c.traceMonitor)
	}
	c.touch = clk.AtCommitOnTouch(name, c.commit)
	c.synced = clk.Committed()
	if c.runsEachEdge() {
		c.touch.Touch()
	}
	// Every channel is a component: its counters surface through the
	// simulator's metrics registry under the channel name as a path.
	clk.Sim().Metrics().Source(name, c.emitStats)
	return c
}

// emitStats surfaces the channel's counters into the unified metrics
// registry at snapshot time.
func (c *core[T]) emitStats(emit stats.Emit) {
	s := c.Stats()
	emit("transfers", float64(s.Transfers))
	emit("push_attempts", float64(s.PushAttempts))
	emit("push_fails", float64(s.PushFails))
	emit("pop_attempts", float64(s.PopAttempts))
	emit("pop_fails", float64(s.PopFails))
	emit("stall_cycles", float64(s.StallCycles))
	emit("occupancy_mean", s.MeanOccupancy())
	emit("occupancy", float64(len(c.queue)))
	if c.mode == ModeRTLCosim {
		emit("rtl_toggles", float64(c.rtlToggles))
	}
}

// rtlEval recomputes the channel's wire image once per cycle — the
// signal-level evaluation cost an RTL simulator pays whether or not a
// transfer happens — and accumulates switching activity for the power
// trace. It runs at the head of commit, before this edge's staged
// operations latch.
func (c *core[T]) rtlEval() {
	var msg bitvec.Vec
	if v, ok := c.peek(); ok && c.pack != nil {
		msg = c.pack(v)
	} else {
		msg = bitvec.New(64)
	}
	// Handshake bits: valid, ready.
	hs := bitvec.New(2)
	if _, ok := c.peek(); ok {
		hs = hs.SetBit(0, 1)
	}
	if c.skidFree() && !c.stalledReady {
		hs = hs.SetBit(1, 1)
	}
	img := msg.Concat(hs)
	if img.Width() == c.rtlSigs.Width() {
		c.rtlToggles += uint64(img.Xor(c.rtlSigs).OnesCount())
	} else if c.rtlSigs.Width() > 0 {
		c.rtlToggles += uint64(img.OnesCount())
	}
	c.rtlSigs = img
}

// skidFree reports whether the producer-side skid can accept a push.
func (c *core[T]) skidFree() bool {
	return len(c.skid)-c.bypassTaken < 1
}

// inflight is a message travelling through the channel's pipeline registers.
type inflight[T any] struct {
	v      T
	mature uint64 // cycle at which the entry enters the visible queue
}

// canPush reports whether a tryPush this cycle would succeed; blocked
// producers park on it, through readyToPush on a channel that sleeps.
func (c *core[T]) canPush() bool {
	return !c.stalledReady && c.skidFree()
}

// readyToPush is canPush on a channel that sleeps: the push-park
// predicate and Out.Full. It wakes the channel, and a refusal keeps it
// awake until a later check finds ready open, so that the commit whose
// roll lifts the stall notifies a producer parked on it.
func (c *core[T]) readyToPush() bool {
	c.wake()
	ok := c.canPush()
	c.pushWait = !ok
	return ok
}

// wake brings a sleeping channel's stall stream up to this edge and
// lists it for this edge's commit. A sleeping channel holds no message,
// so only producer-side entries read its stall bits: tryPush and
// readyToPush call wake first, and Stats only catches up, since it may
// run in a commit or monitor phase.
func (c *core[T]) wake() {
	c.catchUp()
	c.touch.Touch()
}

// canPop reports whether a tryPop this cycle would succeed, including
// the kind-specific bypass path; blocked consumers park on it.
func (c *core[T]) canPop() bool {
	if c.stalledValid {
		return false
	}
	if len(c.queue)-c.stagedPops > 0 {
		return true
	}
	if c.kind == KindBypass || c.kind == KindCombinational {
		// The bypass path may only fire when no older message is still in
		// flight; otherwise it would overtake and reorder.
		return len(c.inflightBuf) == 0 && len(c.skid)-c.bypassTaken > 0
	}
	return false
}

// tryPush attempts to place v in the producer skid. Success means the
// message is committed to delivery (possibly after back-pressure delay);
// failure means the port saw ready deasserted this cycle.
func (c *core[T]) tryPush(v T) bool {
	if c.sleeps {
		c.wake()
	}
	c.stats.PushAttempts++
	if !c.canPush() {
		c.stats.PushFails++
		return false
	}
	if c.mode == ModeRTLCosim && c.pack != nil {
		// Bit-level signal work: pack the message as HLS-generated RTL
		// would drive it onto the wires.
		_ = c.pack(v)
	}
	c.skid = append(c.skid, v)
	c.touch.Touch()
	c.ev.Notify()
	return true
}

// tryPop attempts to take one message into *v, implementing the
// kind-specific valid generation, including the Bypass/Combinational
// same-cycle bypass path; *v is left alone when it fails. The message
// goes out through v, not a result: a message returned by value is
// spilled and reloaded in pieces at each call level, a store-forwarding
// stall on every pop.
func (c *core[T]) tryPop(v *T) bool {
	c.stats.PopAttempts++
	if !c.canPop() {
		c.stats.PopFails++
		return false
	}
	if len(c.queue)-c.stagedPops > 0 {
		*v = c.queue[c.stagedPops]
		c.stagedPops++
	} else {
		*v = c.skid[c.bypassTaken]
		c.bypassTaken++
	}
	c.touch.Touch()
	c.ev.Notify()
	return true
}

// netCount is the number of messages the channel currently holds across
// committed queue, skid, and delay line, net of this cycle's staged
// consumption — the occupancy figure handshake events carry.
func (c *core[T]) netCount() uint64 {
	return uint64(len(c.queue) + len(c.skid) + len(c.inflightBuf) - c.stagedPops - c.bypassTaken)
}

// emitPush records a port push outcome on an armed channel. Call sites
// write the nil-check inline —
//
//	ok := c.tryPush(v)
//	if c.sub != nil {
//		c.emitPush(ok)
//	}
//
// — so the disarmed path pays exactly one predictable branch and no
// extra call (the pattern the disarmed-overhead guard benchmarks). The
// primitives above stay untraced as the benchmark baseline.
func (c *core[T]) emitPush(ok bool) {
	k := trace.KindFull
	if ok {
		k = trace.KindPush
	}
	c.sub.Emit(k, uint64(c.clk.Now()), c.clk.Cycle(), c.netCount())
}

// emitPop records a port pop outcome on an armed channel; see emitPush
// for the call-site pattern.
func (c *core[T]) emitPop(ok bool) {
	k := trace.KindEmpty
	if ok {
		k = trace.KindPop
	}
	c.sub.Emit(k, uint64(c.clk.Now()), c.clk.Cycle(), c.netCount())
}

// traceMonitor samples the channel's committed handshake state once per
// cycle and emits level-change events (valid, ready, occupancy, injected
// stalls). Registered only when the simulation is armed.
func (c *core[T]) traceMonitor() {
	now, cyc := uint64(c.clk.Now()), c.clk.Cycle()
	var valid, ready uint64
	if _, ok := c.peek(); ok {
		valid = 1
	}
	if c.skidFree() && !c.stalledReady {
		ready = 1
	}
	occ := uint64(len(c.queue))
	var stall uint64
	if c.stalledValid {
		stall |= 1
	}
	if c.stalledReady {
		stall |= 2
	}
	if !c.tInit || valid != c.tLastValid {
		c.sub.Emit(trace.KindValid, now, cyc, valid)
		c.tLastValid = valid
	}
	if !c.tInit || ready != c.tLastReady {
		c.sub.Emit(trace.KindReady, now, cyc, ready)
		c.tLastReady = ready
	}
	if !c.tInit || occ != c.tLastOcc {
		c.sub.Emit(trace.KindOcc, now, cyc, occ)
		c.tLastOcc = occ
	}
	if c.pStall > 0 && (!c.tInit || stall != c.tLastStall) {
		c.sub.Emit(trace.KindStall, now, cyc, stall)
		c.tLastStall = stall
	}
	c.tInit = true
}

// peek returns the head without consuming it.
func (c *core[T]) peek() (T, bool) {
	var zero T
	if c.stalledValid {
		return zero, false
	}
	if len(c.queue)-c.stagedPops > 0 {
		return c.queue[c.stagedPops], true
	}
	return zero, false
}

// runsEachEdge reports whether the channel commits on every edge: an
// RTL-cosim channel evaluates its wires each cycle, and an armed
// channel's trace monitor reads its stall stream each cycle.
func (c *core[T]) runsEachEdge() bool {
	return c.mode == ModeRTLCosim || c.sub != nil && c.pStall > 0
}

// commit is the channel's kernel process, run on the edges it was
// touched or asked to run again: it evaluates an RTL-cosim channel's
// wires, latches this edge's staged operations, matures the delay line,
// transmits from the skid, and rolls the next edge's stalls. It asks to
// run again while messages remain in the skid or delay line, on every
// edge when runsEachEdge holds, and, on a channel that sleeps, while its
// queue holds messages or a producer waits (pushWait).
func (c *core[T]) commit() (again bool) {
	if c.mode == ModeRTLCosim {
		c.rtlEval()
	}
	// This edge and the idle ones since the last commit, when the
	// committed queue held. (A stalled channel is never listed after
	// idle edges: the entry that woke it caught them up.)
	edges := c.clk.Committed() + 1 - c.synced
	c.synced += edges
	moved := c.stagedPops + c.bypassTaken
	c.stats.Transfers += uint64(moved)
	c.stats.Cycles += edges
	c.stats.OccupancySum += edges * uint64(len(c.queue))

	// Retire consumed entries.
	if c.stagedPops > 0 {
		c.queue = shift(c.queue, c.stagedPops)
		c.stagedPops = 0
	}
	if c.bypassTaken > 0 {
		c.skid = shift(c.skid, c.bypassTaken)
		c.bypassTaken = 0
	}

	// Mature delay-line entries.
	now := c.clk.Cycle()
	n := 0
	for _, e := range c.inflightBuf {
		if e.mature <= now {
			c.queue = append(c.queue, e.v)
			moved++
		} else {
			c.inflightBuf[n] = e
			n++
		}
	}
	c.inflightBuf = c.inflightBuf[:n]

	// Transmit from the skid when downstream capacity allows — the
	// helper-thread behaviour of the paper's sim-accurate model. Entries
	// still in the delay line count against the committed capacity:
	// retiming registers cannot stall, so a message admitted into them
	// must already have a queue slot reserved. Latency therefore never
	// adds effective buffering.
	sent := 0
	for sent < len(c.skid) && len(c.queue)+len(c.inflightBuf) < c.cap {
		v := c.skid[sent]
		sent++
		if c.latency == 0 {
			c.queue = append(c.queue, v)
		} else {
			c.inflightBuf = append(c.inflightBuf, inflight[T]{v: v, mature: now + uint64(c.latency)})
		}
	}
	if sent > 0 {
		c.skid = shift(c.skid, sent)
		moved += sent
	}

	if len(c.queue) > c.cap {
		panic(fmt.Sprintf("connections: channel %s overflow: %d > %d", c.name, len(c.queue), c.cap))
	}

	// Count this edge's stall and roll the next edge's.
	if c.pStall > 0 {
		valid, ready := c.stalledValid, c.stalledReady
		c.roll(edges)
		if valid != c.stalledValid || ready != c.stalledReady {
			moved++
		}
	}
	if moved > 0 {
		c.ev.Notify()
		if c.watch != nil {
			*c.watch |= c.watchBit
		}
	}
	return c.runsEachEdge() || len(c.skid) > 0 || len(c.inflightBuf) > 0 ||
		c.sleeps && (len(c.queue) > 0 || c.pushWait)
}

// catchUp accounts the edges since the channel last committed or caught
// up, on which it was not listed: its committed queue held, and its
// stall stream rolled as those edges' commits would have.
func (c *core[T]) catchUp() {
	done := c.clk.Committed()
	if done <= c.synced {
		return
	}
	gap := done - c.synced
	c.synced = done
	c.stats.Cycles += gap
	c.stats.OccupancySum += gap * uint64(len(c.queue))
	if c.pStall > 0 {
		c.roll(gap)
	}
}

// roll advances the stall stream by n edges, as n commits do: each
// counts a stall cycle when the current roll withholds valid or ready,
// then draws the next roll. It seeds the stream on first use; the loop
// over the edges runs in stallStream.roll, with the stall bits in
// locals.
func (c *core[T]) roll(n uint64) {
	if c.rng == nil {
		c.rng = newStallStream(c.stallSeed^int64(fnv64a(c.name)), c.pStall)
	}
	var stalls uint64
	c.stalledValid, c.stalledReady, stalls = c.rng.roll(n, c.stalledValid, c.stalledReady)
	c.stats.StallCycles += stalls
}

// shift drops the first n entries of s, moving the rest to the front so
// that the backing array is reused rather than outgrown by later
// appends, and zeroes the vacated tail so it holds no stale references.
func shift[T any](s []T, n int) []T {
	m := copy(s, s[n:])
	clear(s[m:])
	return s[:m]
}

// Stats returns a copy of the channel's counters, after accounting the
// idle edges since the last commit.
func (c *core[T]) Stats() Stats {
	c.catchUp()
	return c.stats
}
