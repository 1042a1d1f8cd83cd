// Package synth is the logic-synthesis substrate of the flow: it maps a
// scheduled HLS design onto the standard cells of a technology library
// (bit-blasting word-level operations into gates and pipeline registers
// into flops), optimizes the netlist (constant propagation, structural
// deduplication, dead-cell removal), and provides static timing analysis
// and area/gate-count reporting in NAND2 equivalents — the units the
// paper's productivity numbers are quoted in. Compile is the flow's one
// HLS-to-gates call, and Cosim its one check of a netlist against the
// golden model.
package synth
