//go:build go1.23

// Threads are runtime coroutines (iter.Pull), which need language version
// go1.23; this constraint raises it for this file alone, so the module
// itself keeps building as go1.22.

package sim

import (
	"fmt"
	"iter"
)

// Thread is the handle a coroutine process uses to synchronize with its
// clock. All methods must be called only from the thread body.
type Thread struct {
	t *thread
}

// thread is a coroutine process. Its body runs as an iter.Pull iterator:
// the kernel resumes it with next, and Wait suspends it with yield, so a
// handoff is one coroutine switch on the kernel's goroutine rather than a
// round trip through the scheduler.
type thread struct {
	name     string
	clock    *Clock
	next     func() (struct{}, bool)
	yield    func(struct{}) bool
	finished bool
	started  bool
	body     func(*Thread)

	// Parking state, owned by the kernel while the thread is suspended. A
	// parked thread is skipped — no coroutine switch — until its
	// condition holds at its scheduling slot.
	parkN    uint64      // countdown parking (WaitN); resumes when it hits 0
	parkPred func() bool // predicate parking (WaitOn); nil when not parked
	woken    bool        // an event notified since parkPred last ran
	sens     []*Event    // the event slice the thread last registered on
}

// Spawn registers a coroutine process on clock c. The body starts running
// at the first rising edge and is resumed once per edge after each Wait.
// When the body returns the thread retires. A body must not call
// runtime.Goexit (for example through testing.T.FailNow): under a
// coroutine that unwinds the kernel's goroutine instead of retiring the
// thread.
func (c *Clock) Spawn(name string, body func(*Thread)) {
	c.threads = append(c.threads, &thread{name: name, clock: c, body: body})
}

// Wait suspends the thread until the next rising edge of its clock.
func (t *Thread) Wait() {
	t.t.yield(struct{}{})
}

// WaitN suspends the thread for n rising edges. The kernel counts the
// edges down without resuming the coroutine, so a long WaitN costs one
// switch instead of n.
func (t *Thread) WaitN(n int) {
	if n <= 0 {
		return
	}
	t.t.parkN = uint64(n)
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
	th.parkPred = pred
	th.woken = true
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
// retires the thread. The stop func iter.Pull returns is not kept.
func (th *thread) start() {
	th.started = true
	th.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				th.clock.sim.recordPanic(fmt.Errorf("sim: thread %q panicked: %v", th.name, r))
			}
			th.finished = true
		}()
		th.yield = yield
		th.body(&Thread{t: th})
	})
}
