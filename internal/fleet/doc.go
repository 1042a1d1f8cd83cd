// Package fleet scales the simulation service from one daemon to many:
// a gateway (cmd/socgw) fronts N registered socd workers, sharding
// content-addressed job specs across them and failing jobs over when a
// worker dies mid-run.
//
// # Topology
//
// socgw = serve front + fleet executor. The client-facing surface is
// internal/serve's own front — routes, job table, LRU result cache,
// event logs, drain — so socctl points at a gateway or a lone socd
// interchangeably, and a repeat is answered at the door. The Gateway
// here is the serve.Executor behind it, plus GET /workers. Workers dial
// the gateway — one long-lived TCP connection each, carrying the
// compact binary frames defined in the wire subpackage (register/ack,
// heartbeats, submit/progress/result/shed).
//
// # Routing
//
// Placement is rendezvous (highest-random-weight) hashing over the
// spec's content hash: every worker gets an independent weight for the
// key, and the descending weight order is the ownership preference
// list. Membership churn moves only the keys owned by the worker that
// joined or died, so repeat submissions of the same spec keep landing
// on the worker whose LRU already holds the result — the cache
// affinity the single-daemon design earns from content addressing is
// preserved across the fleet.
//
// Saturated workers (heartbeat queue depth at capacity) and workers
// that shed a specific job are skipped in preference order; a job with
// no worker left parks and forgets its sheds, waiting for room. A
// client sees 429 only when every live worker is saturated at once.
//
// # Failover
//
// Liveness is a read deadline: any frame (heartbeats at minimum)
// within the DeadAfter window keeps a worker alive; silence or a
// connection error kills it, and every non-terminal job it owned is
// redispatched down the job's preference list. Content addressing
// makes the retry idempotent — the same canonical spec bytes hash to
// the same result on any worker, so a duplicate result from a slow
// "dead" worker is byte-identical to the one already recorded and is
// simply counted and dropped. A worker relays each job's events as
// Progress frames by following the job's log (serve.Job.Follow); the
// front's log drops whatever arrives after the first terminal event,
// so a failed-over job's replayed progress reaches watchers as one
// stream. Deterministic failures (bad spec, failed run) are never
// retried; only worker loss, sheds, and cancellations are.
package fleet
