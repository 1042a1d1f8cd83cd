// Package mc is the repo's bounded model checker for latency-insensitive
// channels — the bit-precise fourth leg of the verification ladder beside
// internal/lint (structural rules), internal/ratecheck (static SDF rate
// bounds) and the dynamic stall-hunter in internal/verif.
//
// The checker extracts an abstract token-flow model from the sim.Design
// side table: every bound channel and registered CDC synchronizer becomes
// an edge with integer occupancy state (visible tokens plus in-flight
// latency/sync stages), and every declared port owner becomes an
// AND-firing actor that consumes and produces its declared token rates
// per firing (ratecheck's SDF abstraction, made bit-precise). Endpoints
// the model cannot represent faithfully — anonymous testbench ports and
// ActorSwitch fabrics, whose routing is data-dependent — are replaced by
// free-running environment actors that may fire or stall arbitrarily;
// the Result counts those abstractions so callers can tell a proof about
// the whole design from a proof about its declared LI subgraph.
//
// States are packed bitvectors (internal/bitvec renders the visited-set
// keys); the search unrolls the synchronous transition relation up to a
// depth bound, enumerating every subset of enabled actors per cycle
// (firing is never compulsory — a stalled actor models arbitrary
// latency, which is exactly the latency-insensitive contract), with
// explicit-state hashing for the visited set. Two property classes are
// checked on every reachable state:
//
//   - MC-1 deadlock-freedom: no reachable state contains a cycle of
//     blocked actors each waiting on a condition only the next can
//     relieve (empty input -> that channel's sole producer, full output
//     -> its sole consumer). Such a cycle of circular necessary
//     conditions can never clear, so the report has no false positives
//     within the model; lint's DLK-1/2 static SCCs are cross-referenced
//     on the diagnostic.
//
//   - MC-2 equivalence: the sim-accurate (unbounded-buffer) and
//     signal-accurate (back-pressured) executions agree on the token
//     stream. A violation witness is a reachable state where an actor
//     has sufficient input tokens (it would fire under unbounded
//     buffering) but is permanently unable to fire under back-pressure —
//     either its output burst exceeds the channel's total storage
//     (ratecheck's RATE-3 minima seed these candidates) or it sits on a
//     deadlock cycle. From that state the unbounded execution delivers
//     tokens the back-pressured one never can.
//
// Verdicts are "proved" (the reachable state space was exhausted below
// the bound — a fixpoint), "bounded" (no violation within the depth
// bound, frontier nonempty), "violated" (counterexample attached), or
// "inconclusive" (state/step budget exhausted, or the per-state choice
// fan-out forced partial firing-subset enumeration). Counterexamples
// replay into a trace.Recorder in time order, so the existing VCD and
// analyzer tooling renders them; see Result.Replay.
//
// Everything is integer arithmetic over deterministic orders: no floats,
// no wall clock, no map iteration into output (cmd/detvet enforces all
// three), so tree/JSON reports are byte-identical on every host.
package mc
