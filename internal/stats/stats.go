package stats

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Metric is one (path, name, value) sample in a snapshot.
type Metric struct {
	Path  string  `json:"path"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Emit is the callback handed to Source functions at snapshot time.
type Emit func(name string, value float64)

// EmitAt is the callback handed to TreeSource functions at snapshot
// time; unlike Emit it may target any component path.
type EmitAt func(path, name string, value float64)

// Registry is the per-simulation metric store: a list of sources polled
// at snapshot time. All methods are intended for single-goroutine use
// from simulation code (the kernel serializes component execution).
type Registry struct {
	sources []source
}

type source struct {
	path string       // fixed path; "" for tree sources
	fn   func(Emit)   // fixed-path source
	tree func(EmitAt) // free-path source
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Source registers a callback that contributes metrics under path each
// time a snapshot is taken. Components keep their own compact counter
// structs and surface them this way, without per-event registry
// traffic.
func (r *Registry) Source(path string, fn func(Emit)) {
	r.sources = append(r.sources, source{path: path, fn: fn})
}

// TreeSource registers a callback that may contribute metrics at any
// path; the kernel uses this for components enumerated only at snapshot
// time (clock domains, process tables).
func (r *Registry) TreeSource(fn func(EmitAt)) {
	r.sources = append(r.sources, source{tree: fn})
}

// Snapshot polls every source into a deterministic, path-then-name
// sorted metric list.
func (r *Registry) Snapshot() []Metric {
	var ms []Metric
	for _, s := range r.sources {
		if s.tree != nil {
			s.tree(func(path, name string, value float64) {
				ms = append(ms, Metric{Path: path, Name: name, Value: value})
			})
			continue
		}
		path := s.path
		s.fn(func(name string, value float64) {
			ms = append(ms, Metric{Path: path, Name: name, Value: value})
		})
	}
	SortMetrics(ms)
	return ms
}

// SortMetrics orders a metric list path-then-name, with numeric runs in
// paths compared by value so replicated components ("pe[2]" before
// "pe[10]") list in natural index order in tree and JSON dumps. Ties on
// (path, name) — two sources emitting the same key, say — break on
// value, so the order is total and the rendered bytes never depend on
// registration order.
func SortMetrics(ms []Metric) {
	slices.SortStableFunc(ms, func(a, b Metric) int {
		if c := naturalCmp(a.Path, b.Path); c != 0 {
			return c
		}
		if c := naturalCmp(a.Name, b.Name); c != 0 {
			return c
		}
		// Not cmp.Compare: a NaN must tie with every value, as under <.
		switch {
		case a.Value < b.Value:
			return -1
		case a.Value > b.Value:
			return 1
		}
		return 0
	})
}

// PathLess reports whether path a orders before path b under the
// registry's natural ordering (digit runs compared numerically).
func PathLess(a, b string) bool { return naturalCmp(a, b) < 0 }

// naturalCmp compares two strings byte-wise except that maximal runs of
// ASCII digits are compared as integers. Numerically equal runs with
// different zero padding fall back to a deterministic tiebreak (more
// padding first) so the order stays total.
func naturalCmp(a, b string) int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ca, cb := a[i], b[j]
		if isDigit(ca) && isDigit(cb) {
			si, sj := i, j
			for i < len(a) && isDigit(a[i]) {
				i++
			}
			for j < len(b) && isDigit(b[j]) {
				j++
			}
			ra, rb := a[si:i], b[sj:j]
			na, nb := strings.TrimLeft(ra, "0"), strings.TrimLeft(rb, "0")
			if len(na) != len(nb) {
				if len(na) < len(nb) {
					return -1
				}
				return 1
			}
			if na != nb {
				if na < nb {
					return -1
				}
				return 1
			}
			if len(ra) != len(rb) {
				if len(ra) > len(rb) {
					return -1
				}
				return 1
			}
			continue
		}
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
		i++
		j++
	}
	switch {
	case len(a)-i < len(b)-j:
		return -1
	case len(a)-i > len(b)-j:
		return 1
	}
	return 0
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Total sums metric name in ms over every path matching prefix (equal,
// or below it in the hierarchy). An empty prefix matches all paths.
func Total(ms []Metric, prefix, name string) float64 {
	var sum float64
	for _, m := range ms {
		if m.Name != name {
			continue
		}
		if prefix == "" || m.Path == prefix || strings.HasPrefix(m.Path, prefix+"/") {
			sum += m.Value
		}
	}
	return sum
}

// Dump writes the snapshot as an indented component tree: one line per
// path segment, metrics nested under their component. Zero-valued
// metrics are included so the tree shape is stable across runs.
func (r *Registry) Dump(w io.Writer) {
	WriteTree(w, r.Snapshot())
}

// WriteTree renders a metric list (as produced by Snapshot or
// ParseJSON) as the indented component tree used by `socsim -stats`.
func WriteTree(w io.Writer, ms []Metric) {
	var prev []string
	for _, m := range ms {
		segs := strings.Split(m.Path, "/")
		if m.Path == "" {
			segs = nil
		}
		// Print the path segments that differ from the previous metric's
		// path, so each component appears once as a tree node.
		common := 0
		for common < len(segs) && common < len(prev) && segs[common] == prev[common] {
			common++
		}
		for i := common; i < len(segs); i++ {
			fmt.Fprintf(w, "%s%s\n", strings.Repeat("  ", i), segs[i])
		}
		prev = segs
		fmt.Fprintf(w, "%s%s = %s\n", strings.Repeat("  ", len(segs)), m.Name, formatValue(m.Value))
	}
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}

// jsonDump is the machine-readable dump format consumed by cmd/benchfig.
type jsonDump struct {
	Metrics []Metric `json:"metrics"`
}

// WriteJSON writes the snapshot as the machine-readable dump format
// ({"metrics":[{path,name,value},...]}) consumed by cmd/benchfig.
func (r *Registry) WriteJSON(w io.Writer) error {
	return WriteMetricsJSON(w, r.Snapshot())
}

// WriteMetricsJSON writes an already-collected metric list in the same
// dump format; campaign summaries (internal/exp) use it to publish
// without a live registry.
//
// The encoder is hand-rolled rather than delegated to encoding/json so
// the bytes are canonical: object keys always in (path, name, value)
// order, one metric per line, floats in their shortest round-trip form.
// The service layer's content-addressed result cache depends on two
// renders of the same metric list being byte-identical.
func WriteMetricsJSON(w io.Writer, ms []Metric) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\n \"metrics\": [")
	for i, m := range ms {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n  {\"path\":")
		bw.Write(quoteJSON(m.Path))
		bw.WriteString(",\"name\":")
		bw.Write(quoteJSON(m.Name))
		bw.WriteString(",\"value\":")
		bw.WriteString(FormatJSONFloat(m.Value))
		bw.WriteByte('}')
	}
	bw.WriteString("\n ]\n}\n")
	return bw.Flush()
}

// quoteJSON renders s as a JSON string literal. encoding/json's string
// escaping is deterministic, so delegating here keeps the canonical
// encoder honest on the one field class that can hold arbitrary bytes.
func quoteJSON(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return []byte(`""`)
	}
	return b
}

// FormatJSONFloat renders a metric value deterministically: integral
// values as plain integers (the common counter case), everything else in
// strconv's shortest round-trip form. NaN and infinities have no JSON
// spelling and degrade to 0.
func FormatJSONFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseJSON decodes a dump written by WriteJSON back into a metric list.
func ParseJSON(data []byte) ([]Metric, error) {
	var d jsonDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("stats: bad dump: %w", err)
	}
	return d.Metrics, nil
}
