// Package serve is the flow's simulation-as-a-service layer: a
// stdlib-only HTTP/JSON job daemon that puts the repo's push-button
// batch jobs — SoC simulation, stall-hunt campaigns, static lint, HLS
// flow QoR, and the Figure 6 comparison — behind a long-lived network
// endpoint. The paper's productivity argument is that every flow step is
// a batch job any team member can fire; the service generalizes that
// from "anyone with a checkout" to "anyone with a socket", which is how
// the follow-on formal-verification and library-characterization
// campaigns are actually consumed: many users, shared infrastructure.
//
// The design has four load-bearing pieces:
//
//   - A canonical job-spec codec (Spec.Canonical). Every spec normalizes
//     to one byte string with fixed key order; its FNV-1a hash is the
//     job's content address. Fields that cannot change results — the
//     campaign shard width, for one — are excluded from the encoding, so
//     "same work" and "same bytes" coincide.
//
//   - A bounded LRU result cache keyed by that hash. Jobs are
//     deterministic by construction (seeded streams, canonical JSON
//     renderers, no wall-clock values in result bodies), so a cache hit
//     returns byte-identical output to the original run.
//
//   - A bounded admission queue over a worker pool that executes each
//     job through internal/exp — inheriting its panic isolation, per-job
//     timeout, and context cancellation. A full queue sheds load
//     explicitly: 429 with a Retry-After estimate instead of unbounded
//     latency.
//
//   - Streaming progress: each job carries an ordered event log
//     (queued → start → progress* → done), wired to exp.OnProgress for
//     campaign jobs. The log keeps its whole history and wakes its
//     followers with one broadcast per event; Job.Follow reads it at
//     the follower's own pace, so a slow watcher catches up instead of
//     losing events. GET /jobs/{id}/stream renders it as chunked
//     NDJSON, and a fleet worker relays it to its gateway, both
//     through Follow.
//
// The Server is the front — routes, job table, cache, event logs,
// drain — over an Executor that runs admitted jobs: New wires the local
// queue and worker pool, and internal/fleet wires a gateway over remote
// workers through NewFront.
//
// Graceful drain (Server.Shutdown) stops admission, lets in-flight jobs
// finish inside a deadline, cancels what remains through the campaign
// context, and leaves no goroutines behind. /metrics and /healthz render
// the server's stats.Registry — queue, cache, and job counters in the
// same path/name namespace socsim -stats uses.
//
// cmd/socd hosts the server; cmd/socctl is the submit/watch/result
// client.
package serve
