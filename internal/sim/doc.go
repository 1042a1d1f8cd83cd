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
//  4. Commit   — registered commit hooks latch state, completing the
//     register-transfer semantics of the cycle.
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
// A thread that would otherwise poll an idle latency-insensitive endpoint
// can park on a predicate (Thread.WaitFor) or a countdown (Thread.WaitN):
// the kernel evaluates the condition at the thread's scheduling slot each
// edge and skips the coroutine switch entirely until it holds. Parking is
// an execution optimization only — a parked thread observes exactly the
// cycle it would have observed by polling.
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
