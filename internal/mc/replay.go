package mc

import (
	"sort"

	"repro/internal/trace"
)

// Replay renders a counterexample into a trace recorder: one subject
// per model edge, with per-cycle occupancy, valid (tokens visible to
// the consumer), and ready (room for the producer's burst) events, plus
// a stall marker on the channels implicated by the violation at the
// final cycle. The recorder then feeds the existing tooling —
// trace.Recorder.WriteVCD for waveforms, Analyze for the backpressure
// report — so a model-checking counterexample debugs exactly like a
// failing stall-hunt.
func (r *Result) Replay(rec *trace.Recorder, cx *Counterexample) {
	if rec == nil || cx == nil || r.model == nil {
		return
	}
	m := r.model
	// Edges sample on their own periods, so the walk below emits out of
	// time order; the events are collected, put in time order and then
	// emitted.
	type emission struct {
		sub         *trace.Subject
		k           trace.Kind
		t, i, value uint64
	}
	var out []emission
	bad := map[string]bool{}
	for _, c := range cx.Channels {
		bad[c] = true
	}
	if cx.Channel != "" {
		bad[cx.Channel] = true
	}
	// Reconstruct per-edge state along the trace from the recorded
	// firing schedule; Steps[i].Occ holds total occupancy, and the
	// visible/ready split replays through the model's step function.
	st := m.newState()
	for i, step := range cx.Steps {
		if i > 0 {
			fire := make([]bool, len(m.Nodes))
			fired := map[string]bool{}
			for _, name := range step.Fired {
				fired[name] = true
			}
			for u := range m.Nodes {
				fire[u] = fired[m.Nodes[u].Name]
			}
			st = m.step(st, fire)
		}
		for ei := range m.Edges {
			e := &m.Edges[ei]
			period := e.PeriodPS
			if period == 0 {
				period = 1000
			}
			t := uint64(i) * period
			sub := rec.Subject(e.Name)
			occ := uint64(m.used(st, ei))
			valid := uint64(0)
			if m.vis(st, ei) >= e.ConsRate {
				valid = 1
			}
			ready := uint64(0)
			if m.used(st, ei)+e.ProdRate <= e.Storage() {
				ready = 1
			}
			out = append(out,
				emission{sub, trace.KindOcc, t, uint64(i), occ},
				emission{sub, trace.KindValid, t, uint64(i), valid},
				emission{sub, trace.KindReady, t, uint64(i), ready})
			if i == len(cx.Steps)-1 && bad[e.Name] {
				out = append(out, emission{sub, trace.KindStall, t, uint64(i), 1})
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].t < out[b].t })
	for _, e := range out {
		e.sub.Emit(e.k, e.t, e.i, e.value)
	}
}
