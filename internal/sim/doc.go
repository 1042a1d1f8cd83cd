// Package sim is a multi-clock-domain, cycle-based hardware simulation
// kernel. It is this repository's substitute for the SystemC kernel used by
// the paper's OOHLS flow (DESIGN.md §2).
//
// The kernel advances time in picoseconds from clock edge to clock edge.
// Every clock edge runs three phases, in order:
//
//  1. Threads  — processes bound to the clock run in registration order:
//     a coroutine thread (Clock.Spawn) resumes and runs until it calls
//     Thread.Wait (one simulated cycle of work); a method
//     (Clock.Method) has its step called once.
//  2. Commit   — commit hooks latch state, completing the
//     register-transfer semantics of the cycle. The clock keeps one
//     commit list: an on-touch hook (Clock.AtCommitOnTouch) runs on the
//     edges a process touched it and on those after it asked to run
//     again; an every-edge hook (Clock.AtCommitNamed) is an on-touch
//     hook touched once and always run again.
//  3. Monitor  — observation-only hooks (statistics, traces).
//
// There is no combinational phase: components talk only through
// latency-insensitive channels that latch at commit, so nothing couples
// within a cycle. Every thread, method and hook carries a non-empty name
// (registering one without panics), which Simulator.Processes reports.
//
// Threads are runtime coroutines (iter.Pull), not goroutines synchronized
// over channels: the kernel switches into a thread and the thread's Wait
// switches back, so exactly one runs at a time, in deterministic
// registration order, and simulations are reproducible. A thread
// performing several latency-insensitive port operations in one loop
// iteration pays one Wait per operation in the signal-accurate channel
// model and one Wait total in the sim-accurate model — the distinction at
// the heart of the paper's Figure 3.
//
// Methods are the counterpart of SystemC's SC_METHOD beside SC_THREAD: a
// method's step runs on the kernel's own stack with no coroutine, parks
// by calling WaitOn or WaitN and returning, and runs again on the next
// edge when it returns without parking. The same step run by a thread as
// for { step(th) } observes the same cycles, so a component whose port
// operations may charge a Wait (the signal-accurate model) keeps one
// body and registers it as a thread there: connections.Method makes that
// choice for the NoC routers, the NoC interfaces' inject and eject loops,
// the RISC-V hart and the GALS link relays. A method must not call Wait.
//
// The kernel is activity-driven, like SystemC's static sensitivity. A
// thread or method that would otherwise poll an idle latency-insensitive
// endpoint parks on a countdown (Thread.WaitN) or on a predicate and the
// events that can change it (Thread.WaitOn). A parked process costs no
// coroutine switch or step call, and its predicate is evaluated at the
// thread's scheduling slot only on the first edge after it parks and on
// edges after one of its events has notified (Event.Notify). The thread
// phase visits only runnable slots: each clock keeps a bit per slot, set
// while the slot is unstarted, counting down, running every edge or
// notified, and cleared when its predicate evaluates false or it
// finishes; a notify of a slot still ahead in the walk runs it on the
// same edge. A consumer that scans many inputs can likewise follow only
// the ones that changed: the NoC router re-peeks only the inputs whose
// channels' commits marked them (connections.In.Watch). A channel
// commits only on edges where it was pushed or popped, or still has
// messages in flight; its per-edge counters catch up over the idle gap
// when next read. A clock with no runnable slot, no commit listed and no
// monitor skips its edge's phases and only counts the edge; a notify
// from any clock wakes it. Under several clocks such a clock, with no pause pending, sleeps:
// it leaves the due scan, and its Cycle, Committed, Now and NextEdge are
// computed from the edge it fell asleep on. An edge (time, name) of a
// sleeping clock has fired iff it is at or before (the current instant,
// the name of the last clock that ran at it), time first; a completed
// step covers its whole instant, and a Stop mid-step leaves the
// later-named edges at that instant unfired. A Notify of one of its
// parked slots (once the running edge ends), a Touch, Pause, SetPeriod
// or a late Spawn, Method or monitor wakes it at its first unfired edge,
// joining the current step when that edge is now and sorts after the
// running clock. The
// multi-clock step finds the earliest edge of the awake clocks and the
// clocks due at it in one pass over them, in name order; an idle edge is
// not a step.
// All of these are execution optimizations only — a parked thread
// observes exactly the cycle it would have observed by polling, provided
// every change to its predicate notifies one of its events.
//
// A run ends in two steps. Stop (safe from any goroutine; a job wires
// its context to it with context.AfterFunc) ends stepping at the next
// edge. Close, called by the owner once stepping is over, retires every
// thread still suspended: its Wait unwinds the body, running its
// deferred calls, so nothing of the design stays reachable from a
// parked coroutine. soc.SoC.Run closes its simulator; other harnesses
// defer Close after their last look at the final state.
//
// Component paths ("soc/pe[3]/inject") key Simulator.Metrics(), the
// unified metrics registry (internal/stats) shared by channels, routers,
// memories, power, and coverage.
//
// Clocks may be paused or retuned while the simulation runs, which is what
// the fine-grained GALS substrate (internal/gals) uses to model pausible
// and adaptive clocking.
//
// A simulator can be armed with a handshake-event recorder
// (Simulator.Arm, internal/trace) before the design is built; armed
// components then emit channel-level trace events from the same
// deterministic schedule, so traced runs are cycle-identical to
// untraced runs.
package sim
