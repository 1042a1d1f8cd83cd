package exp

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"runtime/debug"
	"sync"
	"time" //detvet:ok feeds only timeouts and the Wall report fields

	"repro/internal/stats"
)

// Job is one named experiment: it builds and runs its own simulation and
// returns an arbitrary result value. Run receives a Ctx carrying the
// job's derived seed; a job that wants reproducible randomness must take
// all of it from that seed.
type Job struct {
	Name string
	Run  func(c *Ctx) (any, error)
}

// Ctx is the per-job context handed to a running job.
type Ctx struct {
	// Name is the job's campaign-unique name.
	Name string
	// Seed is the job's derived seed: DeriveSeed(campaignSeed, Name).
	// It depends only on the campaign seed and job name, never on
	// worker count or scheduling order.
	Seed int64

	ctx   context.Context
	stats []stats.Metric
}

// Context returns the job's context: the campaign context installed
// with WithContext (context.Background without one), bounded by the
// Timeout deadline. A job stops when it ends, typically with
//
//	defer context.AfterFunc(c.Context(), s.Stop)()
//
// around a simulation. A job that never looks runs to completion.
func (c *Ctx) Context() context.Context { return c.ctx }

// Publish snapshots reg and attaches the snapshot to the job's Result.
// Call it at most once, after the job's simulation has finished.
func (c *Ctx) Publish(reg *stats.Registry) { c.stats = reg.Snapshot() }

// Result is the outcome of one job.
type Result struct {
	Name     string
	Index    int // submission index
	Seed     int64
	Value    any   // Run's return value; nil on failure
	Err      error // job error, panic, timeout, or cancellation
	Panicked bool
	TimedOut bool
	Canceled bool // campaign context canceled before or during the job
	Wall     time.Duration
	Stats    []stats.Metric // snapshot published via Ctx.Publish, if any
}

// Failed reports whether the job ended in error, panic, or timeout.
func (r Result) Failed() bool { return r.Err != nil }

// Summary is the outcome of a whole campaign.
type Summary struct {
	Name     string // campaign name; roots the summary's metric paths
	Results  []Result
	Wall     time.Duration
	Parallel int
	Seed     int64
	Failed   int
	Canceled int // jobs ended by campaign-context cancellation (subset of Failed)
}

// config collects the campaign options.
type config struct {
	name     string
	parallel int
	seed     int64
	timeout  time.Duration
	ctx      context.Context
	progress func(done, total int, r Result)
}

// Option configures a campaign run.
type Option func(*config)

// Named sets the campaign name, the root path of the summary's metrics
// ("campaign" when unset).
func Named(name string) Option { return func(c *config) { c.name = name } }

// Parallel bounds the worker pool. Values below 1 are clamped to 1;
// parallelism never changes results, only wall time.
func Parallel(n int) Option { return func(c *config) { c.parallel = n } }

// Seed sets the campaign seed that every per-job seed is derived from.
func Seed(s int64) Option { return func(c *config) { c.seed = s } }

// Timeout bounds each job's wall time as a deadline on its Ctx.Context.
// A job that returns after the deadline is reported as a timed-out
// failure. Zero means no limit.
func Timeout(d time.Duration) Option { return func(c *config) { c.timeout = d } }

// WithContext attaches a context to the campaign. When it is canceled,
// jobs that have not started yet complete immediately as Canceled
// failures without running, and jobs in flight see their Ctx.Context
// end and are reported Canceled once they return. A campaign run with
// an uncanceled context is bit-identical to one run without a context —
// cancellation only ever shortens a run, never reorders or reseeds it.
// The service layer's graceful drain is the intended caller.
func WithContext(ctx context.Context) Option { return func(c *config) { c.ctx = ctx } }

// OnProgress registers a callback invoked after each job completes, with
// the number of finished jobs, the campaign size, and the job's result.
// It is called from worker goroutines under a lock; keep it short and do
// not write to the campaign's ordered output from it.
func OnProgress(fn func(done, total int, r Result)) Option {
	return func(c *config) { c.progress = fn }
}

// DeriveSeed returns the deterministic per-job seed for a job name under
// a campaign seed: the FNV-1a hash of the name XORed with the campaign
// seed. This matches the per-channel scheme of connections.WithStall, so
// a job named after a channel observes the same stream the channel's
// stall injector would.
func DeriveSeed(campaignSeed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return campaignSeed ^ int64(h.Sum64())
}

// Run executes the jobs on a bounded worker pool and returns the
// campaign summary with results in submission order. Job names must be
// campaign-unique (they key seed derivation and metric paths); duplicate
// names panic.
func Run(jobs []Job, opts ...Option) *Summary {
	cfg := config{name: "campaign", parallel: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.ctx == nil {
		cfg.ctx = context.Background()
	}
	if cfg.parallel < 1 {
		cfg.parallel = 1
	}
	names := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if names[j.Name] {
			panic(fmt.Sprintf("exp: duplicate job name %q in campaign %q", j.Name, cfg.name))
		}
		names[j.Name] = true
	}

	s := &Summary{
		Name:     cfg.name,
		Results:  make([]Result, len(jobs)),
		Parallel: cfg.parallel,
		Seed:     cfg.seed,
	}
	start := time.Now()
	workers := cfg.parallel
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r := runOne(jobs[i], i, cfg)
				s.Results[i] = r
				mu.Lock()
				done++
				if r.Failed() {
					s.Failed++
				}
				if r.Canceled {
					s.Canceled++
				}
				if cfg.progress != nil {
					cfg.progress(done, len(jobs), r)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	s.Wall = time.Since(start)
	return s
}

// runOne executes one job inline with panic capture, the optional
// timeout, and the optional campaign context.
func runOne(j Job, i int, cfg config) Result {
	r := Result{Name: j.Name, Index: i, Seed: DeriveSeed(cfg.seed, j.Name)}
	if err := cfg.ctx.Err(); err != nil {
		// The campaign was canceled before this job started: report it
		// without running the body.
		r.Canceled = true
		r.Err = fmt.Errorf("job %q canceled before start: %w", j.Name, err)
		return r
	}
	ctx := cfg.ctx
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	c := &Ctx{Name: j.Name, Seed: r.Seed, ctx: ctx}
	start := time.Now()
	r.Value, r.Panicked, r.Err = call(j, c)
	r.Stats, r.Wall = c.stats, time.Since(start)
	// A body that returned after its context ended computed a partial run.
	switch {
	case cfg.ctx.Err() != nil:
		r = Result{Name: j.Name, Index: i, Seed: r.Seed, Wall: r.Wall, Canceled: true,
			Err: fmt.Errorf("job %q canceled: %w", j.Name, cfg.ctx.Err())}
	case ctx.Err() != nil:
		r = Result{Name: j.Name, Index: i, Seed: r.Seed, Wall: r.Wall, TimedOut: true,
			Err: fmt.Errorf("job %q timed out after %v", j.Name, cfg.timeout)}
	}
	return r
}

// call runs the job body, turning a panic into a reported failure.
func call(j Job, c *Ctx) (value any, panicked bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			value, panicked = nil, true
			err = fmt.Errorf("job %q panicked: %v\n%s", j.Name, p, debug.Stack())
		}
	}()
	value, err = j.Run(c)
	return value, false, err
}

// Err returns the first failed job's error in submission order, or nil
// when every job succeeded. Campaign drivers that want fail-fast
// semantics at the end of a run use it as their single error return.
func (s *Summary) Err() error {
	for _, r := range s.Results {
		if r.Failed() {
			return r.Err
		}
	}
	return nil
}

// Failures returns the failed results in submission order.
func (s *Summary) Failures() []Result {
	var out []Result
	for _, r := range s.Results {
		if r.Failed() {
			out = append(out, r)
		}
	}
	return out
}

// Result returns the named job's result.
func (s *Summary) Result(name string) (Result, bool) {
	for _, r := range s.Results {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// Value returns the named job's result value, or nil if the job failed
// or does not exist.
func (s *Summary) Value(name string) any {
	r, ok := s.Result(name)
	if !ok {
		return nil
	}
	return r.Value
}

// Metrics renders the campaign summary in the stats registry format:
// campaign-level counters under the campaign name, per-job status under
// "<campaign>/<job name>", and any stats snapshot a job published under
// "<campaign>/<job name>/<original path>". The list is sorted in the
// registry's natural path order.
func (s *Summary) Metrics() []stats.Metric {
	root := s.Name
	if root == "" {
		root = "campaign"
	}
	ms := []stats.Metric{
		{Path: root, Name: "canceled", Value: float64(s.Canceled)},
		{Path: root, Name: "failed", Value: float64(s.Failed)},
		{Path: root, Name: "jobs", Value: float64(len(s.Results))},
		{Path: root, Name: "parallel", Value: float64(s.Parallel)},
		{Path: root, Name: "wall_seconds", Value: s.Wall.Seconds()},
	}
	for _, r := range s.Results {
		p := root + "/" + r.Name
		ok, panicked, timedOut, canceled := 1.0, 0.0, 0.0, 0.0
		if r.Failed() {
			ok = 0
		}
		if r.Panicked {
			panicked = 1
		}
		if r.TimedOut {
			timedOut = 1
		}
		if r.Canceled {
			canceled = 1
		}
		ms = append(ms,
			stats.Metric{Path: p, Name: "canceled", Value: canceled},
			stats.Metric{Path: p, Name: "ok", Value: ok},
			stats.Metric{Path: p, Name: "panicked", Value: panicked},
			stats.Metric{Path: p, Name: "timed_out", Value: timedOut},
			stats.Metric{Path: p, Name: "wall_seconds", Value: r.Wall.Seconds()},
		)
		for _, m := range r.Stats {
			mp := p
			if m.Path != "" {
				mp = p + "/" + m.Path
			}
			ms = append(ms, stats.Metric{Path: mp, Name: m.Name, Value: m.Value})
		}
	}
	stats.SortMetrics(ms)
	return ms
}

// WriteJSON writes the summary metrics as a stats JSON dump, the same
// machine-readable format socsim -statsjson and benchfig -json emit.
func (s *Summary) WriteJSON(w io.Writer) error {
	return stats.WriteMetricsJSON(w, s.Metrics())
}

// DeterministicMetrics returns Metrics with every host-dependent sample
// removed: wall-clock values (metric name "wall_seconds", at any depth)
// and the campaign's "parallel" shard width, which is configuration,
// not result — the seed-derivation invariant guarantees the remaining
// metrics are identical at every width. What remains depends only on
// the campaign seed and job set, so two runs of the same campaign
// render byte-identical dumps — the form the service layer embeds in
// content-addressed result bodies.
func (s *Summary) DeterministicMetrics() []stats.Metric {
	var out []stats.Metric
	for _, m := range s.Metrics() {
		if m.Name == "wall_seconds" || m.Name == "parallel" {
			continue
		}
		out = append(out, m)
	}
	return out
}
