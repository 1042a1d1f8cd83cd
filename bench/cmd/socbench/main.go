// Command socbench is the repository's benchmark. It times four workloads
// — the SoC tests on one clock and on twenty GALS clocks, and the job
// service through socd and through socgw — and prints every metric by name
// and unit, ending with one JSON line:
//
//	bash bench/run.sh                                  # every workload, untraced
//	bash bench/run.sh -workload serve-mix -seed 2      # one workload
//	bash bench/run.sh -workload soc-sync -trace 1      # per-layer metrics and spans
//	bash bench/run.sh -repeat 3 -json a.json           # a set of runs for compare
//	socbench compare a.json b.json                     # apply BENCHMARK.json's bounds
//
// bench/run.sh builds socbench, socd and socgw into .bench_build/bin and
// runs socbench from there; socbench finds the daemons beside itself.
// See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/bench"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compare(os.Args[2:]))
		case "child":
			os.Exit(child(os.Args[2:]))
		}
	}
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(bench.Workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed: fixes test order and the request stream (seed 2 is held out for claims)")
	seconds := flag.Float64("seconds", 20, "nominal measured seconds per run: fixes how many fixed-size sessions it does (at least one)")
	trace := flag.Int("trace", 0, "1 runs traced: per-layer metrics, probes and span files instead of end-to-end metrics")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory for <workload>.spans.json of traced runs")
	repeat := flag.Int("repeat", 1, "runs per workload")
	jsonOut := flag.String("json", "", "add every run to this report file and rewrite each metric's median and spread")
	flag.Parse()
	// One P, like the soc child: the reference chunks (bench/calib.go)
	// then hand off on one thread, as the simulation kernel does.
	runtime.GOMAXPROCS(1)

	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	binDir := filepath.Dir(exe)
	for _, d := range []string{"socd", "socgw"} {
		if _, err := os.Stat(filepath.Join(binDir, d)); err != nil {
			return fail(fmt.Errorf("%s not found beside socbench; build with bench/run.sh", d))
		}
	}
	workloads := bench.Workloads
	if *workload != "all" {
		workloads = []string{*workload}
	}

	model, ncpu := cpuInfo()
	rep := &bench.Report{Host: bench.Host{
		CPU: model, NumCPU: ncpu, GoVersion: runtime.Version(),
		Platform: runtime.GOOS + "/" + runtime.GOARCH, Date: time.Now().Format("2006-01-02"),
	}}
	code := 0
	for _, w := range workloads {
		for i := 0; i < *repeat; i++ {
			res, err := bench.Run(bench.Options{
				Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
				SpansDir: *spans, Exe: exe, Start: bench.ProcessStarter(binDir),
			})
			if err != nil {
				return fail(err)
			}
			printResult(res)
			if !res.Correct {
				code = 1
			}
			rep.Runs = append(rep.Runs, res)
		}
	}
	if *jsonOut != "" {
		if old, err := bench.ReadReport(*jsonOut); err == nil {
			rep.Runs = append(old.Runs, rep.Runs...)
		} else if !errors.Is(err, os.ErrNotExist) {
			return fail(err)
		}
		rep.Summarize()
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	return code
}

// printResult prints a run's metrics one per line, then the run as the
// one-line JSON result that tools read from the last line of output.
func printResult(r *bench.Result) {
	defs := bench.EndToEnd
	if r.Trace {
		defs = bench.PerLayer
	}
	fmt.Printf("# %s seed %d trace %t: %d attempted, %d failed (error_rate %.4g)\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, d := range defs {
		v := r.Metrics[d.Name]
		fmt.Printf("%-10s %-34s %14.6g %s\n", r.Workload, d.Name, v.Value, v.Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(os.Stderr, "socbench: FAIL:", f)
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   bench.Metrics `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Println(string(line))
}

func compare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "BENCHMARK.json with the metric bounds")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: socbench compare [-bench BENCHMARK.json] A.json B.json")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	spec, err := bench.ReadSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	a, err := bench.ReadReport(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	b, err := bench.ReadReport(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	if bench.WriteRows(os.Stdout, bench.Compare(spec, a.Runs, b.Runs)) {
		return 1
	}
	return 0
}

// child runs one soc session for a parent socbench.
func child(args []string) int {
	fs := flag.NewFlagSet("child", flag.ExitOnError)
	variant := fs.String("variant", "sync", "chip variant")
	tests := fs.String("tests", "", "comma-separated tests")
	seed := fs.Int64("seed", 1, "seed")
	session := fs.Int("session", 0, "session index")
	rounds := fs.Int("rounds", 1, "rounds of the tests")
	trace := fs.Bool("trace", false, "trace every other round")
	fs.Parse(args)
	if err := bench.ChildMain(os.Stdout, *variant, strings.Split(*tests, ","), *seed, *session, *rounds, *trace); err != nil {
		return fail(err)
	}
	return 0
}

// cpuInfo reads the CPU model and the number of online CPUs from
// /proc/cpuinfo ("" and runtime.NumCPU() where there is none). The count
// is the host's, not this process's: bench/run.sh pins socbench to one
// CPU, and runtime.NumCPU() counts only the CPUs a process may use.
func cpuInfo() (model string, n int) {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "processor":
			n++
		case "model name":
			if model == "" {
				model = strings.TrimSpace(v)
			}
		}
	}
	if n == 0 {
		n = runtime.NumCPU()
	}
	return model, n
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "socbench:", err)
	return 2
}
