// Package exp is the experiment-campaign runner behind the paper's
// evaluation sweeps. The paper's figures are piles of independent
// simulations — Figure 3 port sweeps, the six Figure 6 SoC tests, NoC
// load-latency points, GALS margin sweeps, multi-seed stall-hunt
// campaigns — and every one builds its own sim.Simulator, so they are
// embarrassingly parallel. The runner executes a set of named jobs on a
// bounded worker pool with three guarantees:
//
//   - Determinism: each job's seed is derived from the job name and the
//     campaign seed alone (FNV-1a of the name XORed with the campaign
//     seed, the same scheme connections.WithStall uses per channel), so
//     results are bit-identical regardless of worker count, scheduling
//     order, or repeated runs.
//   - Isolation: a panicking job degrades to a reported failure instead
//     of crashing the whole regeneration run. An optional per-job
//     timeout and the campaign context end a job through its
//     Ctx.Context: a body stops by watching that context (a simulation
//     stops its kernel when it ends), and is then reported TimedOut or
//     Canceled.
//   - Accounting: the campaign summary (jobs done, failures, wall time,
//     per-job stats snapshots) is published in the internal/stats
//     registry format, so campaign telemetry lands in the same tree and
//     JSON dumps as every simulated component.
//
// Results are returned in job-submission order; printing code that
// iterates a Summary therefore produces byte-identical output for any
// parallelism level.
package exp
