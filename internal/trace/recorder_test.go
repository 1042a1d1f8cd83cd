package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestSubjectInterning(t *testing.T) {
	r := NewRecorder()
	a := r.Subject("soc/pe[0]/inject")
	b := r.Subject("soc/pe[0]/inject")
	if a != b {
		t.Fatal("same path interned to distinct subjects")
	}
	c := r.Subject("soc/pe[1]/inject")
	if c == a || c.id == a.id {
		t.Fatal("distinct paths share a subject")
	}
	if a.Path() != "soc/pe[0]/inject" {
		t.Fatalf("Path = %q", a.Path())
	}
	want := []string{"soc/pe[0]/inject", "soc/pe[1]/inject"}
	if got := r.Paths(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Paths = %v", got)
	}
}

func TestNilRecorderSubjectIsNil(t *testing.T) {
	var r *Recorder
	if s := r.Subject("x"); s != nil {
		t.Fatal("nil recorder returned a subject")
	}
}

func TestEventLimitDrops(t *testing.T) {
	r := NewRecorder()
	r.SetLimit(2)
	s := r.Subject("ch")
	for i := 0; i < 5; i++ {
		s.Emit(KindPush, uint64(i), uint64(i), 1)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if r.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", r.Dropped())
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindPush: "push", KindPop: "pop", KindFull: "full", KindEmpty: "empty",
		KindStall: "stall", KindValid: "valid", KindReady: "ready", KindOcc: "occ",
		Kind(200): "kind?",
	} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestAnalyzeFlagsNeverDrainingChannel(t *testing.T) {
	r := NewRecorder()
	good := r.Subject("tb/good")
	stuck := r.Subject("tb/stuck")
	// Both channels see pushes over 100 cycles at 1000 ps; only "good"
	// ever pops, and it pops right at the end.
	for i := uint64(0); i < 100; i++ {
		tm := i * 1000
		good.Emit(KindPush, tm, i, 1)
		good.Emit(KindPop, tm, i, 0)
		if i < 3 {
			stuck.Emit(KindPush, tm, i, i+1)
			stuck.Emit(KindOcc, tm, i, i+1)
		}
	}
	rep := r.Analyze(10)
	if len(rep.Channels) != 2 {
		t.Fatalf("channels = %d", len(rep.Channels))
	}
	byPath := map[string]ChannelReport{}
	for _, c := range rep.Channels {
		byPath[c.Path] = c
	}
	if byPath["tb/good"].Suspect {
		t.Fatalf("good channel flagged: %s", byPath["tb/good"].Reason)
	}
	s := byPath["tb/stuck"]
	if !s.Suspect {
		t.Fatal("stuck channel not flagged")
	}
	if s.FinalOcc != 3 || s.Pushes != 3 || s.Pops != 0 {
		t.Fatalf("stuck report: %+v", s)
	}
	if len(rep.Suspects) != 1 || rep.Suspects[0] != "tb/stuck" {
		t.Fatalf("Suspects = %v", rep.Suspects)
	}
	found := false
	for _, line := range rep.Summary() {
		if strings.Contains(line, "tb/stuck") && strings.Contains(line, "SUSPECT") {
			found = true
		}
	}
	if !found {
		t.Fatalf("summary lacks suspect line:\n%s", strings.Join(rep.Summary(), "\n"))
	}
}

func TestAnalyzeRecentPopWithinHorizonNotSuspect(t *testing.T) {
	r := NewRecorder()
	s := r.Subject("tb/slow")
	// Holds a message at the end, but a pop succeeded 5 cycles before the
	// end — inside a 10-cycle horizon, outside a 2-cycle one.
	for i := uint64(0); i < 100; i++ {
		s.Emit(KindPush, i*1000, i, 1)
		if i == 95 {
			s.Emit(KindPop, i*1000, i, 0)
		}
		s.Emit(KindOcc, i*1000, i, 1)
	}
	if rep := r.Analyze(10); rep.Channels[0].Suspect {
		t.Fatalf("flagged inside horizon: %s", rep.Channels[0].Reason)
	}
	if rep := r.Analyze(2); !rep.Channels[0].Suspect {
		t.Fatal("not flagged outside horizon")
	}
}

func TestAnalyzeRates(t *testing.T) {
	r := NewRecorder()
	s := r.Subject("tb/ch")
	// 50 cycles at 1000 ps: a push every cycle, every other push refused,
	// a pop every cycle.
	for i := uint64(0); i < 50; i++ {
		tm := i * 1000
		if i%2 == 0 {
			s.Emit(KindPush, tm, i, 1)
		} else {
			s.Emit(KindFull, tm, i, 1)
		}
		s.Emit(KindPop, tm, i, 0)
	}
	c := r.Analyze(1000).Channels[0]
	if c.Backpressure < 0.49 || c.Backpressure > 0.52 {
		t.Fatalf("Backpressure = %v", c.Backpressure)
	}
	if c.Utilization < 0.9 || c.Utilization > 1.1 {
		t.Fatalf("Utilization = %v", c.Utilization)
	}
}

func TestReportMetricsAndPublish(t *testing.T) {
	r := NewRecorder()
	s := r.Subject("tb/ch")
	s.Emit(KindPush, 0, 0, 1)
	s.Emit(KindPop, 1000, 1, 0)
	rep := r.Analyze(100)

	ms := rep.Metrics("")
	find := func(path, name string) (float64, bool) {
		for _, m := range ms {
			if m.Path == path && m.Name == name {
				return m.Value, true
			}
		}
		return 0, false
	}
	if v, ok := find("trace", "channels"); !ok || v != 1 {
		t.Fatalf("trace/channels = %v, %v", v, ok)
	}
	if v, ok := find("trace/tb/ch", "pushes"); !ok || v != 1 {
		t.Fatalf("pushes metric = %v, %v", v, ok)
	}

	reg := stats.New()
	rep.Publish(reg, "trace")
	got := false
	for _, m := range reg.Snapshot() {
		if m.Path == "trace/tb/ch" && m.Name == "pushes" && m.Value == 1 {
			got = true
		}
	}
	if !got {
		t.Fatalf("registry snapshot lacks trace metrics: %+v", reg.Snapshot())
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := NewRecorder()
		for i := 0; i < 4; i++ {
			s := r.Subject(fmt.Sprintf("tb/ch[%d]", i))
			for j := uint64(0); j < 20; j++ {
				s.Emit(KindPush, j*1000, j, j%3)
				s.Emit(KindPop, j*1000+10, j, 0)
			}
		}
		return r
	}
	a := build().Analyze(50).Summary()
	b := build().Analyze(50).Summary()
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("analysis not deterministic")
	}
}
