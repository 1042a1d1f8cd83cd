package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/connections"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/soc"
	"repro/internal/stats"
	"repro/internal/verif"
)

// writeDeterministicMetrics dumps a campaign summary's wall-free metric
// view in the canonical stats JSON format.
func writeDeterministicMetrics(w io.Writer, s *exp.Summary) error {
	return stats.WriteMetricsJSON(w, s.DeterministicMetrics())
}

// Progress is the sink adapters report progress into; the server fans
// it out to NDJSON watchers. Campaign kinds call it once per finished
// inner job, verify once per completed unroll depth; the other
// single-run kinds never call it.
type Progress func(done, total int, label string)

// testKinds maps synthetic job kinds, registered only by the package
// tests, to their executors. It lets the queue/drain/streaming tests
// control job timing precisely without simulating hardware; production
// code never populates it. Registration must happen before any server
// handles traffic (the map itself is unsynchronized by design).
var testKinds = map[string]func(c *exp.Ctx, spec Spec, progress Progress) ([]byte, error){}

// RegisterTestKind installs a synthetic job kind. It exists solely for
// tests outside this package (internal/fleet's gateway/failover tests
// need wire-visible jobs with test-controlled timing); production code
// must never call it. Like testKinds itself, registration must happen
// before any server handles traffic.
func RegisterTestKind(kind string, fn func(c *exp.Ctx, spec Spec, progress Progress) ([]byte, error)) {
	testKinds[kind] = fn
}

// Execute runs a normalized spec to completion and returns its result
// body — canonical JSON whose bytes depend only on the spec, never on
// wall-clock time, worker count, or host scheduling. That invariant is
// what lets the content-addressed cache serve stored bytes as the job's
// one true result. It runs inside an exp job body, so panics are the
// runner's; c.Context() ends with the job's timeout or drain
// cancellation, and every kind stops on it: it stops the simulator of a
// sim, ends nested campaigns and bounds the model checker's search.
func Execute(c *exp.Ctx, spec Spec, progress Progress) ([]byte, error) {
	switch spec.Kind {
	case KindSim:
		return runSim(c, spec)
	case KindStallHunt:
		return runStallHunt(c, spec, progress)
	case KindQoR:
		return runQoR(spec)
	case KindFig6:
		return runFig6(c, spec, progress)
	}
	if p, ok := analysis.Lookup(spec.Kind); ok {
		return runCheck(c, p, spec, progress)
	}
	if fn, ok := testKinds[spec.Kind]; ok {
		return fn(c, spec, progress)
	}
	return nil, fmt.Errorf("serve: unknown job kind %q", spec.Kind)
}

// marshalBody renders a result struct as the service's canonical body
// bytes. encoding/json emits struct fields in declaration order, and no
// result struct contains a map, so the bytes are deterministic given
// deterministic values.
func marshalBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func simConfig(spec Spec) soc.Config {
	cfg := soc.DefaultConfig()
	cfg.Mode, _ = connections.ParseMode(spec.Mode)
	cfg.GALS = spec.GALS
	cfg.StallP = spec.Stall
	cfg.StallSeed = spec.Seed
	return cfg
}

// simResult is the KindSim body. No wall time: elapsed cycles and
// retired instructions are simulated quantities, identical on every run
// of the same spec.
type simResult struct {
	Kind    string `json:"kind"`
	Test    string `json:"test"`
	Mode    string `json:"mode"`
	GALS    bool   `json:"gals"`
	Status  string `json:"status"` // PASS | FAIL
	Detail  string `json:"detail,omitempty"`
	Cycles  uint64 `json:"cycles"`
	Instret uint64 `json:"instret"`
	Pauses  uint64 `json:"pauses"` // pausible-FIFO clock pauses (GALS mode)
}

func runSim(c *exp.Ctx, spec Spec) ([]byte, error) {
	tc, ok := soc.Lookup(spec.Test)
	if !ok || tc.Pass != "" {
		return nil, fmt.Errorf("serve: unknown sim test %q", spec.Test)
	}
	s, verify := tc.Build(simConfig(spec))
	defer context.AfterFunc(c.Context(), s.Sim.Stop)()
	cycles, err := s.Run(spec.MaxCycles)
	if err != nil {
		return nil, fmt.Errorf("serve: sim %s: %w", spec.Test, err)
	}
	res := simResult{
		Kind: KindSim, Test: spec.Test, Mode: spec.Mode, GALS: spec.GALS,
		Status: "PASS", Cycles: cycles, Instret: s.RV.CPU.Instret,
	}
	if spec.GALS {
		res.Pauses = s.Pauses()
	}
	if verr := verify(s); verr != nil {
		res.Status, res.Detail = "FAIL", verr.Error()
	}
	return marshalBody(res)
}

// runCheck runs one analysis pass over one design and renders the
// pass's canonical body. verify reports each completed unroll depth
// through the progress sink, so NDJSON watchers see the frontier
// advance.
func runCheck(c *exp.Ctx, p analysis.Pass, spec Spec, progress Progress) ([]byte, error) {
	tc, ok := soc.Lookup(spec.Test)
	if !ok {
		return nil, fmt.Errorf("serve: unknown %s design %q", spec.Kind, spec.Test)
	}
	s, _ := tc.Build(simConfig(spec))
	r := p.Run(s.Sim, analysis.Options{
		Context: c.Context(),
		Depth:   spec.Depth,
		Progress: func(depth, states int) {
			if progress != nil {
				progress(depth, spec.Depth, fmt.Sprintf("depth %d (%d states)", depth, states))
			}
		},
	})
	return p.Body(spec.Test, spec.Mode, spec.GALS, spec.Depth, r)
}

// stallHuntResult is the KindStallHunt body: the campaign aggregate plus
// the summary's deterministic metrics dump (wall samples stripped).
type stallHuntResult struct {
	Kind            string          `json:"kind"`
	Stall           float64         `json:"stall"`
	Messages        int             `json:"messages"`
	Seeds           int             `json:"seeds"`
	Seed            int64           `json:"seed"`
	BugSeeds        int             `json:"bug_seeds"`
	CornerSeeds     int             `json:"corner_seeds"`
	MaxTimingStates int             `json:"max_timing_states"`
	TotalDelivered  int             `json:"total_delivered"`
	FirstBugIndex   int             `json:"first_bug_index"`
	FirstBugSeed    int64           `json:"first_bug_seed"`
	Diagnosis       []string        `json:"diagnosis"`
	Metrics         json.RawMessage `json:"metrics"`
}

func runStallHunt(c *exp.Ctx, spec Spec, progress Progress) ([]byte, error) {
	agg, sum := verif.RunStallHuntCampaign(
		spec.Stall, spec.Messages, spec.Seeds, spec.Seed, spec.Parallel,
		exp.WithContext(c.Context()),
		exp.OnProgress(func(done, total int, r exp.Result) {
			if progress != nil {
				progress(done, total, r.Name)
			}
		}))
	if err := sum.Err(); err != nil {
		return nil, err
	}
	res := stallHuntResult{
		Kind: KindStallHunt, Stall: spec.Stall, Messages: spec.Messages,
		Seeds: spec.Seeds, Seed: spec.Seed,
		BugSeeds: agg.BugSeeds, CornerSeeds: agg.CornerSeeds,
		MaxTimingStates: agg.MaxTimingStates, TotalDelivered: agg.TotalDelivered,
		FirstBugIndex: agg.FirstBugIndex, FirstBugSeed: agg.FirstBugSeed,
		Diagnosis: agg.Diagnosis,
	}
	if res.Diagnosis == nil {
		res.Diagnosis = []string{}
	}
	var ms bytes.Buffer
	if err := writeDeterministicMetrics(&ms, sum); err != nil {
		return nil, err
	}
	res.Metrics = json.RawMessage(bytes.TrimRight(ms.Bytes(), "\n"))
	return marshalBody(res)
}

// qorRow mirrors core.QoRRow with wire-stable field names.
type qorRow struct {
	Design    string  `json:"design"`
	HLSGates  int     `json:"hls_gates"`
	HandGates int     `json:"hand_gates"`
	DeltaPct  float64 `json:"delta_pct"`
	Tuned     bool    `json:"tuned"`
}

type qorResult struct {
	Kind string   `json:"kind"`
	Rows []qorRow `json:"rows"`
}

func runQoR(Spec) ([]byte, error) {
	rows, err := core.QoRTable(core.DefaultFlow())
	if err != nil {
		return nil, err
	}
	res := qorResult{Kind: KindQoR, Rows: make([]qorRow, len(rows))}
	for i, r := range rows {
		res.Rows[i] = qorRow{
			Design: r.Design, HLSGates: r.HLSGates, HandGates: r.HandGates,
			DeltaPct: r.DeltaPct, Tuned: r.Tuned,
		}
	}
	return marshalBody(res)
}

// fig6Row carries only the simulated quantities of a Figure 6 row; the
// wall-clock columns (and the speedup derived from them) vary run to run
// and are deliberately absent from the cacheable body.
type fig6Row struct {
	Test        string  `json:"test"`
	TLMCycles   uint64  `json:"tlm_cycles"`
	RTLCycles   uint64  `json:"rtl_cycles"`
	CycleErrPct float64 `json:"cycle_err_pct"`
}

type fig6Result struct {
	Kind string    `json:"kind"`
	Rows []fig6Row `json:"rows"`
}

func runFig6(c *exp.Ctx, spec Spec, progress Progress) ([]byte, error) {
	rows, sum := soc.RunFig6Campaign(spec.MaxCycles, spec.Parallel,
		exp.WithContext(c.Context()),
		exp.OnProgress(func(done, total int, r exp.Result) {
			if progress != nil {
				progress(done, total, r.Name)
			}
		}))
	if err := sum.Err(); err != nil {
		return nil, err
	}
	res := fig6Result{Kind: KindFig6, Rows: make([]fig6Row, len(rows))}
	for i, r := range rows {
		res.Rows[i] = fig6Row{
			Test: r.Test, TLMCycles: r.TLMCycles, RTLCycles: r.RTLCycles,
			CycleErrPct: r.CycleErrPct,
		}
	}
	return marshalBody(res)
}
