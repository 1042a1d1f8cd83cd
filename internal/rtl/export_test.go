package rtl

// RefSim is the reference interpreter, for the package's external tests.
type RefSim = refSim

// NewRefSim builds the reference interpreter for n.
func NewRefSim(n *Netlist) (*RefSim, error) { return newRefSim(n) }
