// Package core assembles the end-to-end modular VLSI flow of the paper's
// Figure 1: design capture (internal/hls builder), HLS compilation
// (optimization, scheduling, pipelining) and logic synthesis to a mapped
// gate-level netlist (synth.Compile), RTL cosimulation against the
// golden model (synth.Cosim), power analysis (internal/power), and the
// back-end partition/floorplan/clocking/turnaround models
// (internal/physical). It also hosts the paper-reproduction experiment
// drivers for the QoR, back-end and productivity results.
package core
