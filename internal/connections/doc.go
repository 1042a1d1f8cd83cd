// Package connections implements the paper's Connections library:
// latency-insensitive (LI) channels with unified In/Out ports that are
// decoupled from the channel kind chosen at integration time (Table 1 and
// Figure 2 of the paper).
//
// Three port-operation cost models are provided, selected per channel:
//
//   - ModeSimAccurate (default): the paper's sim-accurate model. Port
//     operations stage data into endpoint buffers that a kernel-level
//     channel process flushes at commit, so a thread loop touching any
//     number of ports advances one cycle per iteration. Elapsed cycles
//     match RTL throughput.
//   - ModeSignalAccurate: the paper's synthesizable signal-accurate model.
//     Every Push/PushNB/Pop/PopNB performs a delayed handshake operation —
//     drive valid (or ready), wait one cycle, clear, sample the other
//     side — so multiple port operations in one loop body serialize. This
//     is the error source measured in Figure 3.
//   - ModeRTLCosim: keeps the parallel transfer resolution of the
//     sim-accurate model but packs every message to bits, carries it
//     through a pipeline-register delay line, and unpacks on delivery.
//     Elapsed cycles grow slightly (pipeline latency) and wall-clock cost
//     grows substantially — the two properties measured in Figure 6.
//
// A blocked port operation waits the same way wherever it is written.
// After a failed PopNB or PushNB, In.Park and Out.Park wait as a blocked
// Pop or Push does before its next attempt: on the channel's readiness
// predicate and event in the sim-accurate and RTL-cosim models, and not
// at all in the signal-accurate one, where the next attempt charges its
// own Wait. Pop and Push are PopNB/PushNB loops around Park. A component
// written as a step — a failed operation parks through its port and
// returns, a finished iteration ends with WaitN(1) — registers it with
// Method, which runs it as a kernel method process, or as the thread
// "for { step(th) }" in the signal-accurate model, so the step observes
// the same cycles as the blocking loop it replaces in every model.
//
// Channels can inject random stalls (withholding valid and/or ready) to
// perturb inter-unit timing without changing design or testbench code,
// reproducing the paper's verification aid. A channel's stalls are a
// math/rand stream seeded with its seed and name, two draws per edge.
// A stalled channel commits, rolls and notifies on every edge only while
// a port can see its stalls: while it holds a message, or while a
// producer whose push was refused waits on it. Otherwise it sleeps. An
// empty channel's consumer sees no message whatever the stalls say, so
// only the producer side reads a sleeping channel's stall bits: a push,
// the push-park predicate and Out.Full first draw the rolls of the edges
// slept through, counting their stall cycles as the skipped commits
// would have, and list the channel again; Stats draws them without
// listing it. The stream is seeded on the first such draw, so a channel
// that is never pushed or read costs nothing while the clock runs.
// Armed (traced) and RTL-cosim channels never sleep, since their
// monitor and wire image read the stall bits on every edge.
//
// When a simulation is armed for handshake tracing (sim.Simulator.Arm
// before channels are bound), every channel additionally emits
// push/pop/full/empty port outcomes and per-cycle valid/ready/occupancy
// level changes into the internal/trace recorder under its component
// path. Disarmed channels cache a nil trace subject and pay one
// predictable branch per port operation; the armed-only per-cycle
// monitor hook is not even registered when disarmed.
package connections
