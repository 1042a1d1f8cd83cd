package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed interval recorded by the benchmark around a call into
// a layer. Times are nanoseconds since the run started. Spans of one
// request or iteration share Req; Parent is 0 for a root span.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, which is how untraced runs stay untraced.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, req int64) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int64) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere.
func (r *recorder) add(name string, parent, req int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: int64(len(r.spans) + 1), Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
}

func (r *recorder) all() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// appendSpans renumbers spans recorded in another process after dst's,
// shifting their times by offset nanoseconds.
func appendSpans(dst, src []Span, offset int64) []Span {
	base := int64(len(dst))
	for _, s := range src {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Start += offset
		s.End += offset
		dst = append(dst, s)
	}
	return dst
}

// SelfTimes returns each span's self time: its duration minus the part of
// it its direct children cover. Children of one parent never overlap (the
// benchmark issues a parent's calls one after another), so the covered
// part is the sum of their durations clipped to the parent.
func SelfTimes(spans []Span) map[int64]int64 {
	self := make(map[int64]int64, len(spans))
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[p.ID] -= hi - lo
		}
	}
	return self
}

// selfMetrics reports the mean self time of each span name in ms under
// self_ms.<name>.
func selfMetrics(spans []Span, vals map[string]float64) {
	self := SelfTimes(spans)
	sum := map[string]float64{}
	n := map[string]float64{}
	for _, s := range spans {
		sum[s.Name] += float64(self[s.ID]) / 1e6
		n[s.Name]++
	}
	for name := range sum {
		vals["self_ms."+name] = sum[name] / n[name]
	}
}

// writeSpans writes spans to dir/<workload>.spans.json.
func writeSpans(dir, workload string, spans []Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []Span `json:"spans"`
	}{workload, spans}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, workload+".spans.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
