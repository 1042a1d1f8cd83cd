// Package sim is a multi-clock-domain, cycle-based hardware simulation
// kernel. It is this repository's substitute for the SystemC kernel used by
// the paper's OOHLS flow (DESIGN.md §2).
//
// The kernel advances time in picoseconds from clock edge to clock edge.
// Every clock edge runs three phases, in order:
//
//  1. Threads  — coroutine processes bound to the clock resume and run
//     until they call Thread.Wait (one simulated cycle of work).
//  2. Commit   — commit hooks latch state, completing the
//     register-transfer semantics of the cycle. The clock keeps one
//     commit list: an on-touch hook (Clock.AtCommitOnTouch) runs on the
//     edges a thread touched it and on those after it asked to run
//     again; an every-edge hook (Clock.AtCommitNamed) is an on-touch
//     hook touched once and always run again.
//  3. Monitor  — observation-only hooks (statistics, traces).
//
// There is no combinational phase: components talk only through
// latency-insensitive channels that latch at commit, so nothing couples
// within a cycle. Every thread and hook carries a non-empty name
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
// The kernel is activity-driven, like SystemC's static sensitivity. A
// thread that would otherwise poll an idle latency-insensitive endpoint
// parks on a countdown (Thread.WaitN) or on a predicate and the events
// that can change it (Thread.WaitOn). A parked thread costs no coroutine
// switch, and its predicate is evaluated at the thread's scheduling slot
// only on the first edge after it parks and on edges after one of its
// events has notified (Event.Notify). A channel likewise commits only on
// edges where it was pushed or popped, or still has messages in flight;
// its per-edge counters catch up over the idle gap when next read.
// Both are execution optimizations only — a parked thread observes
// exactly the cycle it would have observed by polling, provided every
// change to its predicate notifies one of its events.
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
