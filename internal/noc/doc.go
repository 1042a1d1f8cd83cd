// Package noc implements the MatchLib network-on-chip modules: the
// store-and-forward router (SFRouter), the wormhole router with virtual
// channels (WHVCRouter), network interfaces that packetize/depacketize
// messages, and the XY mesh builder. The prototype SoC's PE array uses a
// WHVC mesh, as in the paper's Figure 5.
//
// On an armed simulation (sim.Simulator.Arm) each WHVC router records
// crossbar back-pressure into the internal/trace recorder: one event
// per cycle an arbitrated flit was refused by a downstream VC buffer,
// tagged with the output port. Per-VC link occupancy comes from the
// channels themselves, which trace independently.
package noc
