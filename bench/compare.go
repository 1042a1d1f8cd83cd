package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Spec is the part of BENCHMARK.json the benchmark reads: the workloads
// and the metrics with their directions and regression bounds.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// ReadSpec loads BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Report is the file `socbench -json` writes: the host, every run, and
// each metric's median and spread per workload.
type Report struct {
	Host    Host         `json:"host"`
	Runs    []*Result    `json:"runs"`
	Summary []SummaryRow `json:"summary"`
}

// Host describes where a report was measured.
type Host struct {
	CPU       string `json:"cpu,omitempty"`
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go"`
	Platform  string `json:"platform"`
	Date      string `json:"date"`
}

// SummaryRow is one metric's median and spread over a workload's runs
// (untraced runs for end-to-end metrics, traced runs for per-layer ones).
type SummaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Median   float64 `json:"median"`
	Spread   float64 `json:"spread"`
	Runs     int     `json:"runs"`
}

// Summarize fills the report's summary rows.
func (r *Report) Summarize() {
	r.Summary = nil
	type key struct {
		workload, metric string
		trace            bool
	}
	vals := map[key][]float64{}
	units := map[string]string{}
	for _, run := range r.Runs {
		for name, v := range run.Metrics {
			k := key{run.Workload, name, run.Trace}
			vals[k] = append(vals[k], v.Value)
			units[name] = v.Unit
		}
	}
	for _, w := range Workloads {
		for _, set := range []struct {
			defs  []MetricDef
			trace bool
		}{{EndToEnd, false}, {PerLayer, true}} {
			for _, d := range set.defs {
				xs := vals[key{w, d.Name, set.trace}]
				if len(xs) == 0 {
					continue
				}
				_, med, _ := Quartiles(xs)
				r.Summary = append(r.Summary, SummaryRow{w, d.Name, units[d.Name], med, Spread(xs), len(xs)})
			}
		}
	}
}

// ReadReport loads a report file.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of a comparison.
const (
	Better     = "better"
	Same       = "same"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// Row is one (workload, metric) comparison of a base set of runs A with a
// candidate set B.
type Row struct {
	Workload, Metric, Unit string
	MedianA, MedianB       float64
	SpreadA, SpreadB       float64
	Change                 float64 // relative change of B's median, positive when better
	Bound                  float64
	Verdict                string
}

// Compare applies BENCHMARK.json's bounds to every end-to-end metric of
// every workload both sets ran untraced. A change beyond the bound is
// better or worse; within it, same. When either set's spread exceeds the
// bound the difference is unresolved, unless every run of B reads better
// than every run of A.
func Compare(spec *Spec, a, b []*Result) []Row {
	collect := func(runs []*Result, w, m string) []float64 {
		var xs []float64
		for _, r := range runs {
			if r.Workload == w && !r.Trace {
				if v, ok := r.Metrics[m]; ok {
					xs = append(xs, v.Value)
				}
			}
		}
		return xs
	}
	var rows []Row
	for _, w := range Workloads {
		for _, d := range spec.EndToEnd {
			xa, xb := collect(a, w, d.Name), collect(b, w, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			sign := 1.0
			if d.Better == "lower" {
				sign = -1
			}
			_, ma, _ := Quartiles(xa)
			_, mb, _ := Quartiles(xb)
			row := Row{Workload: w, Metric: d.Name, Unit: d.Unit, MedianA: ma, MedianB: mb,
				SpreadA: Spread(xa), SpreadB: Spread(xb), Change: sign * ratio(mb-ma, ma), Bound: d.Bound}
			switch {
			case row.SpreadA > d.Bound || row.SpreadB > d.Bound:
				row.Verdict = Unresolved
				if allBetter(xa, xb, sign) {
					row.Verdict = Better
				}
			case row.Change < -d.Bound:
				row.Verdict = Worse
			case row.Change > d.Bound:
				row.Verdict = Better
			default:
				row.Verdict = Same
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, sign float64) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if sign > 0 {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// WriteRows prints a comparison and reports whether any metric got worse.
func WriteRows(w io.Writer, rows []Row) (worse bool) {
	fmt.Fprintf(w, "%-10s %-17s %14s %14s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "spreadA", "spreadB", "change", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-17s %14.4g %14.4g %7.1f%% %7.1f%% %+7.1f%% %6.0f%%  %s\n",
			r.Workload, r.Metric, r.MedianA, r.MedianB, 100*r.SpreadA, 100*r.SpreadB, 100*r.Change, 100*r.Bound, r.Verdict)
		worse = worse || r.Verdict == Worse
	}
	return worse
}
