package bench

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/soc"
)

// Workloads are the benchmark's workloads, in run order.
var Workloads = []string{"soc-sync", "soc-gals", "serve-mix", "fleet-mix"}

// workload is one workload's fixed session. A run does whole sessions
// only: their number follows from the run's seconds and the session's
// nominal length, never from how fast the host turns out to be, so a run
// does the same work on any host.
type workload struct {
	variant string  // soc: the chip variant ("sync", "gals"); "" on service workloads
	rounds  int     // soc: rounds of the six tests in one session
	fleet   bool    // service: through socgw and two workers instead of one socd
	nominal float64 // seconds one session takes on the reference host (bench/README.md)
}

var workloadDefs = map[string]workload{
	"soc-sync":  {variant: "sync", rounds: 48, nominal: 14},
	"soc-gals":  {variant: "gals", rounds: 36, nominal: 18},
	"serve-mix": {nominal: 10.5},
	"fleet-mix": {fleet: true, nominal: 10.5},
}

// sessions returns how many sessions a run of the given seconds does: the
// nearest whole number, at least one.
func (w workload) sessions(seconds float64) int {
	return max(1, int(math.Round(seconds/w.nominal)))
}

// reqsPerSession spaces the request ids of successive sessions apart.
const reqsPerSession = 1_000_000

// setupsPerRun is how many set-ups a run measures; setup_s is their
// median. Set-ups beyond the sessions' own start a session and stop it
// before its first measured op.
const setupsPerRun = 5

// Options selects and sizes one run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64 // nominal measured time; fixes the number of sessions
	Trace    bool
	SpansDir string // where a traced run writes <workload>.spans.json; "" writes none

	// Exe is the socbench binary that runs each soc session as a child
	// process ("" runs sessions in this process). Start starts the
	// service clusters.
	Exe   string
	Start Starter

	// Tiny shrinks each session to a smoke-test size and skips the extra
	// set-ups, for the package test.
	Tiny bool
}

// Result is one run's outcome in the form the benchmark prints.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   Metrics  `json:"metrics"`
	Failures  []string `json:"failures,omitempty"`
	Spans     []Span   `json:"-"`
}

// Run measures one workload. A traced run reports only the layers its
// workload reaches; the others read 0.
func Run(opt Options) (*Result, error) {
	w, ok := workloadDefs[opt.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", opt.Workload, strings.Join(Workloads, ", "))
	}
	rec := newRecorder(time.Now())
	e2e, layer := map[string]float64{}, map[string]float64{}
	res := &Result{Workload: opt.Workload, Seed: opt.Seed, Trace: opt.Trace}
	ref := newReference()
	defer ref.Close()
	var err error
	if w.variant != "" {
		err = runSoc(opt, w, ref, res, rec, e2e, layer)
	} else {
		err = runService(opt, w, ref, res, rec, e2e, layer)
	}
	if err != nil {
		return nil, err
	}
	if opt.Trace {
		if err := probes(layer, opt.Tiny); err != nil {
			return nil, err
		}
		res.Spans = rec.all()
		selfMetrics(res.Spans, layer)
		res.Metrics = fill(PerLayer, layer)
		if opt.SpansDir != "" {
			if err := writeSpans(opt.SpansDir, opt.Workload, res.Spans); err != nil {
				return nil, err
			}
		}
	} else {
		res.Metrics = fill(EndToEnd, e2e)
	}
	res.Failed = len(res.Failures)
	res.Correct = res.Failed == 0
	return res, nil
}

// runSoc runs a soc workload's sessions.
func runSoc(opt Options, w workload, ref *reference, res *Result, rec *recorder, e2e, layer map[string]float64) error {
	var tests []string
	for _, tc := range soc.Tests() {
		tests = append(tests, tc.Name)
	}
	rounds, n := w.rounds, w.sessions(opt.Seconds)
	if opt.Tiny {
		rounds, n = 1, 1
		if opt.Trace {
			rounds = 2 // one untraced round, one traced
		}
	}
	var batches []Batch
	var setups, rss []float64
	for session := 0; session < n; session++ {
		b, setup, err := socSession(opt, ref, w.variant, tests, session, rounds)
		if err != nil {
			return err
		}
		batches = append(batches, b)
		setups = append(setups, setup)
		rss = append(rss, float64(b.PeakRSSKB)*1024/1e6)
		res.Failures = append(res.Failures, b.Failures...)
		res.Attempted += len(b.Iters)
		rec.spans = appendSpans(rec.spans, b.Spans, b.T0Unix-rec.t0.UnixNano())
	}
	for !opt.Tiny && len(setups) < setupsPerRun {
		_, setup, err := socSession(opt, ref, w.variant, tests, len(setups), 0)
		if err != nil {
			return err
		}
		setups = append(setups, setup)
	}
	socMetrics(w.variant, batches, setups, rss, e2e, layer)
	return nil
}

// socSession runs one soc session, in a child process when opt.Exe is
// set, and returns its batch and its calibrated set-up time: from spawn to
// the end of the warm-up run, between the reference chunk timed here
// before the spawn and the session's first one.
func socSession(opt Options, ref *reference, variant string, tests []string, session, rounds int) (Batch, float64, error) {
	before := ref.time()
	if opt.Exe == "" {
		t0 := time.Now()
		if err := WarmUp(variant); err != nil {
			return Batch{}, 0, err
		}
		setup := time.Since(t0).Seconds()
		b := RunBatch(variant, tests, opt.Seed, session, rounds, opt.Trace, ref)
		return b, setup * calibration(before, b.RefNs[0]), nil
	}
	cmd := exec.Command(opt.Exe, "child",
		"-variant", variant, "-tests", strings.Join(tests, ","),
		"-seed", strconv.FormatInt(opt.Seed, 10), "-session", strconv.Itoa(session),
		"-rounds", strconv.Itoa(rounds), "-trace", strconv.FormatBool(opt.Trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return Batch{}, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return Batch{}, 0, err
	}
	r := bufio.NewReader(out)
	line, err := r.ReadString('\n')
	setup := time.Since(t0).Seconds()
	var b Batch
	if err == nil && line != "ready\n" {
		err = fmt.Errorf("child: %s", strings.TrimSpace(line))
	}
	if err == nil {
		err = json.NewDecoder(r).Decode(&b)
	}
	io.Copy(io.Discard, r)
	if werr := cmd.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return Batch{}, 0, fmt.Errorf("soc session %d: %w", session, err)
	}
	return b, setup * calibration(before, b.RefNs[0]), nil
}

// ChildMain is the soc session child process: it warms up, reports
// ready, runs the batch and writes it as JSON.
//
// The child runs on one P. The kernel runs one goroutine at a time and
// hands off on every resumed thread; with a second P idle, a handoff can
// wake the other vCPU, and on a shared VM that wake-up costs whatever the
// host's load makes it (memcpy's Run took 23-25 ms on one P and 24-47 ms
// on two, in one process). One P measures the kernel, not the host.
func ChildMain(w io.Writer, variant string, tests []string, seed int64, session, rounds int, trace bool) error {
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(-1) // RunBatch collects between iterations
	if err := WarmUp(variant); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "ready\n"); err != nil {
		return err
	}
	ref := newReference()
	defer ref.Close()
	b := RunBatch(variant, tests, seed, session, rounds, trace, ref)
	var err error
	if b.PeakRSSKB, err = peakRSSKB("self"); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(b)
}

// runService runs a service workload's sessions.
func runService(opt Options, w workload, ref *reference, res *Result, rec *recorder, e2e, layer map[string]float64) error {
	if opt.Start == nil {
		return errors.New("no service starter")
	}
	m, n := fullMix, w.sessions(opt.Seconds)
	if opt.Tiny {
		m, n = tinyMix, 1
	}
	var sessions []*session
	var setups []float64
	seen := map[string]int{}
	for i := 0; i < n; i++ {
		stream := genStream(opt.Seed, i, m)
		var traced []bool
		if opt.Trace {
			traced = traceEveryOther(stream, seen)
		}
		s, err := runSession(opt.Start, w.fleet, stream, traced, ref, rec, int64(i+1)*reqsPerSession)
		if err != nil {
			return fmt.Errorf("%s session %d: %w", opt.Workload, i, err)
		}
		sessions = append(sessions, s)
		setups = append(setups, s.setup)
		res.Attempted += len(s.stream)
		res.Failures = append(res.Failures, s.failures...)
	}
	// The extra set-ups double as the idle baseline for RSS growth.
	var idle []float64
	for !opt.Tiny && len(setups) < setupsPerRun {
		c, setup, err := startCluster(opt.Start, w.fleet, ref)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", opt.Workload, err)
		}
		kb, err := c.Stop()
		if err != nil {
			return err
		}
		setups = append(setups, setup)
		idle = append(idle, float64(kb))
	}
	res.Failures = append(res.Failures, checkReferences(sessions)...)
	serviceMetrics(w.fleet, sessions, setups, median(idle), e2e, layer)
	return nil
}
