package hls

import "math/bits"

// Constraints parameterize a compilation, decoupled from the design
// source exactly as HLS/synthesis scripts are in the paper's flow.
type Constraints struct {
	ClockPS    int // target clock period in picoseconds
	MaxMuls    int // multipliers available per stage (0 = unlimited)
	MaxAdders  int // adders/subtractors available per stage (0 = unlimited)
	NoPipeline bool
}

// DefaultConstraints targets the testchip's 1.1 GHz signoff clock.
func DefaultConstraints() Constraints { return Constraints{ClockPS: 909} }

// Schedule is the result of pipelining a design.
type Schedule struct {
	Design  *Design
	Clock   int // requested period, ps
	Period  int // achieved period, ps (≥ Clock when a single op is slower)
	Latency int // pipeline stages (0 = combinational)
	RegBits int // pipeline register bits inserted

	// Steps counts scheduler work items, the deterministic proxy for HLS
	// compile effort that grows with unrolled design size.
	Steps int
}

func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// opDelay is the pre-synthesis timing estimate in picoseconds used for
// scheduling; signoff timing comes from synth.STA after mapping.
func opDelay(op *Op) int {
	w := op.Width
	switch op.Kind {
	case OpAdd, OpSub:
		return 60 + 25*log2ceil(w) // carry-lookahead estimate
	case OpMul:
		return 150 + 60*log2ceil(w)
	case OpAnd, OpOr, OpXor, OpNot:
		return 25
	case OpEq:
		return 30 + 15*log2ceil(op.Args[0].Width)
	case OpLt:
		return 60 + 25*log2ceil(op.Args[0].Width)
	case OpMux:
		return 45
	default:
		return 0 // wiring: slice, concat, zext, shifts by constant, ports
	}
}

// Pipeline assigns every op a stage so no combinational path exceeds the
// clock constraint and per-stage resource limits hold, then counts the
// pipeline registers needed for values crossing stage boundaries. It is
// a list scheduler over the SSA order.
func Pipeline(d *Design, c Constraints) *Schedule {
	s := &Schedule{Design: d, Clock: c.ClockPS, Period: c.ClockPS}
	if c.ClockPS <= 0 {
		panic("hls: non-positive clock constraint")
	}
	finish := make([]int, len(d.Ops)) // combinational finish time within stage
	mulsIn := map[int]int{}
	addsIn := map[int]int{}
	for _, op := range d.Ops {
		s.Steps++
		stage, offset := 0, 0
		for _, a := range op.Args {
			if a.Stage > stage {
				stage, offset = a.Stage, 0
			}
		}
		for _, a := range op.Args {
			if a.Stage == stage && finish[a.ID] > offset {
				offset = finish[a.ID]
			}
		}
		delay := opDelay(op)
		if delay > s.Period {
			s.Period = delay // op slower than the clock: stretch signoff period
		}
		if !c.NoPipeline && offset > 0 && offset+delay > c.ClockPS {
			stage++
			offset = 0
			s.Steps++
		}
		// Resource-constrained placement: slide forward past full stages.
		for {
			if op.Kind == OpMul && c.MaxMuls > 0 && mulsIn[stage] >= c.MaxMuls && !c.NoPipeline {
				stage++
				offset = 0
				s.Steps++
				continue
			}
			if (op.Kind == OpAdd || op.Kind == OpSub) && c.MaxAdders > 0 && addsIn[stage] >= c.MaxAdders && !c.NoPipeline {
				stage++
				offset = 0
				s.Steps++
				continue
			}
			break
		}
		switch op.Kind {
		case OpMul:
			mulsIn[stage]++
		case OpAdd, OpSub:
			addsIn[stage]++
		}
		op.Stage = stage
		finish[op.ID] = offset + delay
		if stage > s.Latency {
			s.Latency = stage
		}
	}
	// Every output leaves in the last stage, so all of a vector's outputs
	// appear together Latency cycles after it was issued; an output
	// computed earlier is registered through to that stage.
	for _, o := range d.Outputs {
		o.Stage = s.Latency
	}
	// Pipeline registers: a value produced in stage p and consumed in
	// stage q > p needs (q-p) registers of its width.
	lastUse := make([]int, len(d.Ops))
	for i := range lastUse {
		lastUse[i] = -1
	}
	for _, op := range d.Ops {
		for _, a := range op.Args {
			if op.Stage > lastUse[a.ID] {
				lastUse[a.ID] = op.Stage
			}
		}
	}
	for _, op := range d.Ops {
		if lastUse[op.ID] > op.Stage {
			s.RegBits += op.Width * (lastUse[op.ID] - op.Stage)
		}
	}
	return s
}
