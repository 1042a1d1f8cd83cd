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
	parkPred func() bool // predicate parking (WaitFor); nil when not parked
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

// WaitFor parks the thread until pred holds. The kernel evaluates pred at
// the thread's scheduling slot on each subsequent edge and resumes the
// coroutine only when it returns true, skipping the switch entirely on
// idle edges. Like Wait, it always suspends for at least one edge, so
//
//	th.WaitFor(ready)
//
// observes exactly the same cycle as the polling loop
//
//	for { th.Wait(); if ready() { break } }
//
// pred runs in the kernel between thread resumptions; it must only read
// simulation state and must not panic.
func (t *Thread) WaitFor(pred func() bool) {
	if pred == nil {
		panic("sim: WaitFor(nil) by thread " + t.t.name)
	}
	t.t.parkPred = pred
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
