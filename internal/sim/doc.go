// Package sim is a multi-clock-domain, cycle-based hardware simulation
// kernel. It is this repository's substitute for the SystemC kernel used by
// the paper's OOHLS flow (DESIGN.md §2).
//
// The kernel advances time in picoseconds from clock edge to clock edge.
// Every clock edge runs five phases, in order:
//
//  1. Threads  — coroutine processes bound to the clock resume and run
//     until they call Thread.Wait (one simulated cycle of work).
//  2. Drive    — registered drive hooks compute output signals from the
//     state committed in previous cycles.
//  3. Resolve  — registered resolvers iterate to a fixpoint, modelling
//     combinational paths between components (ready/valid coupling,
//     arbitration) within the cycle.
//  4. Commit   — commit hooks latch state, completing the
//     register-transfer semantics of the cycle: first the hooks
//     registered to run on every edge (Clock.AtCommitNamed), then the
//     on-touch hooks (Clock.AtCommitOnTouch) whose handle was touched
//     during this edge's phases 1-3 or that asked to run again.
//  5. Monitor  — observation-only hooks (statistics, traces).
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
// Every simulated component can register into a hierarchical component
// tree (Simulator.Component) whose paths ("soc/pe[3]/inject") key the
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
