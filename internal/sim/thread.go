//go:build go1.23

// Threads are runtime coroutines (iter.Pull), which need language version
// go1.23; this constraint raises it for this file alone, so the module
// itself keeps building as go1.22.

package sim

import (
	"fmt"
	"iter"
)

// Thread is the handle a process uses to synchronize with its clock: a
// coroutine thread's body or a method's step. All methods must be called
// only from that body or step.
type Thread struct {
	t *thread
}

// thread is a process slot on a clock: a coroutine thread or a method.
// A thread's body runs as an iter.Pull iterator: the kernel resumes it
// with next, and Wait suspends it with yield, so a handoff is one
// coroutine switch on the kernel's goroutine rather than a round trip
// through the scheduler. A method (step non-nil) has no coroutine: the
// kernel calls runStep instead of next, and the step parks by setting
// the park state below and returning.
type thread struct {
	// Parking state, owned by the kernel while the thread is suspended. A
	// parked thread is skipped — no coroutine switch — until its
	// condition holds at its scheduling slot. These fields and the run
	// state come first, so that the kernel's walk over the slots, which
	// reads them on every edge, touches few cache lines.
	finished bool
	started  bool
	slot     uint32      // index in the clock's threads and bit in its ready set
	parkN    uint64      // countdown parking (WaitN); resumes when it hits 0
	parkPred func() bool // predicate parking (WaitOn); nil when not parked
	next     func() (struct{}, bool)
	step     func(*Thread)

	name  string
	clock *Clock
	stop  func()
	yield func(struct{}) bool
	body  func(*Thread)
	self  Thread   // the handle passed to body or step
	sens  []*Event // the event slice the thread last registered on
}

// Spawn registers a named coroutine process on clock c. The body starts
// running at the first rising edge and is resumed once per edge after
// each Wait. When the body returns the thread retires. A body must not call
// runtime.Goexit (for example through testing.T.FailNow): under a
// coroutine that unwinds the kernel's goroutine instead of retiring the
// thread.
func (c *Clock) Spawn(name string, body func(*Thread)) {
	mustName("thread", name)
	th := &thread{name: name, clock: c, body: body}
	th.self.t = th
	c.addSlot(th)
}

// addSlot appends th to c's slots, runnable, waking c if it sleeps.
func (c *Clock) addSlot(th *thread) {
	if c.sleeping {
		c.wake()
	}
	th.slot = uint32(len(c.threads))
	if th.slot&63 == 0 {
		c.ready = append(c.ready, 0)
	}
	c.ready[th.slot>>6] |= 1 << (th.slot & 63)
	c.threads = append(c.threads, th)
}

// Method registers a named method process on clock c, the counterpart of
// SystemC's SC_METHOD beside Spawn's SC_THREAD. The kernel calls step in
// the method's registration slot among the clock's threads, from its own
// stack, with no coroutine: at the first rising edge, and after that on
// every edge the step is due. A step that returns without parking runs
// again on the next edge; a step that calls WaitN or WaitOn sets the
// park state and runs again when a thread parked the same way would
// resume (the last park of a step wins). So a method with step f
// observes exactly the cycles of the thread
//
//	for { f(th) }
//
// whenever f parks on every path, a return without parking standing for
// Wait. A step must not call Wait, which panics naming the method; a
// panicking step stops the simulation with the panic as Simulator.Err,
// as a thread's does. Simulator.Close has nothing to retire in a method.
func (c *Clock) Method(name string, step func(*Thread)) {
	mustName("method", name)
	th := &thread{name: name, clock: c, step: step, started: true}
	th.self.t = th
	// The kernel calls a method's step where it resumes a thread; a
	// method's yield, reached only by Wait, panics; and it has no
	// coroutine for Close to stop.
	th.yield = func(struct{}) bool { panic(fmt.Sprintf("sim: Wait in method %q", name)) }
	th.stop = func() {}
	c.addSlot(th)
}

// Wait suspends the thread until the next rising edge of its clock.
// Once Simulator.Close has retired the thread, Wait unwinds the body
// instead of returning, so the body's deferred calls run. A method must
// not call Wait: it returns from its step instead.
func (t *Thread) Wait() {
	if !t.t.yield(struct{}{}) {
		panic(retired{})
	}
}

// retired is the panic value with which Wait unwinds a thread that
// Simulator.Close retired; start's recover swallows it.
type retired struct{}

// WaitN suspends the thread for n rising edges. The kernel counts the
// edges down without resuming the coroutine, so a long WaitN costs one
// switch instead of n.
func (t *Thread) WaitN(n int) {
	if n <= 0 {
		return
	}
	th := t.t
	th.parkN = uint64(n)
	if th.step != nil {
		th.parkPred = nil
		return
	}
	t.Wait()
}

// WaitOn parks the thread until pred holds, re-evaluating pred only
// when one of evs has notified. The kernel evaluates pred at the
// thread's scheduling slot on the first edge after the park, and after
// that only on edges after a notify, resuming the coroutine once pred
// returns true. Like Wait, it always suspends for at least one edge, so
//
//	th.WaitOn(ready, evs...)
//
// observes exactly the same cycle as the polling loop
//
//	for { th.Wait(); if ready() { break } }
//
// provided everything that can turn ready true notifies one of evs.
// pred runs in the kernel between thread resumptions; it must only read
// simulation state and must not panic.
//
// Registration accumulates: the thread stays on every event it ever
// parked on, and an event that notifies while the thread waits on
// something else costs one predicate call. Pass a slice built once —
// registration is skipped when evs is the slice of the previous WaitOn —
// so that parking allocates nothing.
func (t *Thread) WaitOn(pred func() bool, evs ...*Event) {
	th := t.t
	if pred == nil {
		panic("sim: WaitOn(nil) by thread " + th.name)
	}
	if len(evs) > 0 && (len(evs) != len(th.sens) || &evs[0] != &th.sens[0]) {
		for _, e := range evs {
			e.register(th)
		}
		th.sens = evs
	}
	// The caller's slot is running, so its ready bit is set: the kernel
	// evaluates pred at the slot on the next edge.
	th.parkPred = pred
	if th.step != nil {
		th.parkN = 0
		return
	}
	t.Wait()
}

// Clock returns the clock the thread is bound to.
func (t *Thread) Clock() *Clock { return t.t.clock }

// Cycle returns the current cycle count of the thread's clock.
func (t *Thread) Cycle() uint64 { return t.t.clock.cycle }

// Sim returns the owning simulator.
func (t *Thread) Sim() *Simulator { return t.t.clock.sim }

// Name returns the thread name.
func (t *Thread) Name() string { return t.t.name }

// start creates the thread's coroutine; the caller's next call runs the
// body up to its first Wait. A panicking body stops the simulation and
// retires the thread. stop, which Simulator.Close calls, retires it
// without an error.
func (th *thread) start() {
	th.started = true
	th.next, th.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != (retired{}) {
				th.clock.sim.recordPanic(fmt.Errorf("sim: thread %q panicked: %v", th.name, r))
			}
			// A finished slot is parked on nothing, so no Notify marks
			// it runnable again.
			th.finished, th.parkPred = true, nil
		}()
		th.yield = yield
		th.body(&th.self)
	})
}

// runStep calls a method's step. A panicking step stops the simulation
// and retires the method.
func (th *thread) runStep() {
	defer func() {
		if r := recover(); r != nil {
			th.finished, th.parkPred = true, nil
			th.clock.sim.recordPanic(fmt.Errorf("sim: method %q panicked: %v", th.name, r))
		}
	}()
	th.step(&th.self)
}
