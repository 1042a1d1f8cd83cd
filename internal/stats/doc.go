// Package stats is the unified metrics layer shared by every simulated
// component. Metrics are keyed by a hierarchical component path (e.g.
// "soc/pe[3]/inject") plus a metric name, so one registry holds channel
// traffic counters, NoC link counters, SoC activity counters, power
// estimates, and verification coverage under a single naming scheme
// (DESIGN.md §3).
//
// Path naming scheme: paths are "/"-separated segments from the design
// root; replicated elements use a bracketed index segment ("pe[3]",
// "r[12]"); metric names are lower_snake_case. Every metric is a source:
// a component keeps its own compact counter struct for the hot path and
// registers a Source (or TreeSource) callback that reports it. The
// registry polls sources only when a snapshot is taken, so steady-state
// simulation cost is zero.
package stats
