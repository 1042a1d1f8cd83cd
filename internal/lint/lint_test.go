package lint_test

import (
	"strings"
	"testing"

	"repro/internal/connections"
	"repro/internal/gals"
	"repro/internal/hls"
	"repro/internal/lint"
	"repro/internal/sim"
)

// one returns the single diagnostic with the given rule, failing the
// test when the count differs.
func one(t *testing.T, r *lint.Result, rule string) lint.Diag {
	t.Helper()
	var got []lint.Diag
	for _, d := range r.Diags {
		if d.Rule == rule {
			got = append(got, d)
		}
	}
	if len(got) != 1 {
		t.Fatalf("want exactly one %s diagnostic, got %d (all: %+v)", rule, len(got), r.Diags)
	}
	return got[0]
}

func TestCDC1UnsynchronizedCrossing(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 10, 0)
	b := s.AddClock("b", 13, 0)
	out := connections.NewOut[int]().Owned(a, "x", "o")
	in := connections.NewIn[int]().Owned(b, "y", "i")
	connections.Buffer(a, "ch", 2, out, in)

	r := lint.Check(s)
	d := one(t, r, "CDC-1")
	if d.Severity != lint.SevError {
		t.Fatalf("CDC-1 severity = %v, want error", d.Severity)
	}
	// The acceptance bar: the diagnostic names both endpoint paths.
	for _, want := range []string{"x.o", "y.i", "clock a", "clock b"} {
		if !strings.Contains(d.Message, want) {
			t.Errorf("CDC-1 message %q missing %q", d.Message, want)
		}
	}
	if r.Errors() != 1 {
		t.Fatalf("Errors() = %d, want 1", r.Errors())
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "CDC-1") {
		t.Fatalf("Err() = %v, want CDC-1 error", err)
	}
}

func TestCDC1NamesPartitions(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 10, 0)
	b := s.AddClock("b", 13, 0)
	s.Design().MarkPartition("left", a)
	s.Design().MarkPartition("right", b)
	out := connections.NewOut[int]().Owned(a, "left/x", "o")
	in := connections.NewIn[int]().Owned(b, "right/y", "i")
	connections.Buffer(a, "ch", 2, out, in)

	d := one(t, lint.Check(s), "CDC-1")
	if !strings.Contains(d.Message, "partitions left and right") {
		t.Fatalf("CDC-1 message %q does not name the partitions", d.Message)
	}
}

func TestCDCSilentOnSynchronizedCrossing(t *testing.T) {
	// The legal crossing pattern: same-clock channels on each side, the
	// registered synchronizer in between (soc.cdcLink's shape).
	s := sim.New()
	a := s.AddClock("a", 10, 0)
	b := s.AddClock("b", 13, 0)
	aOut := connections.NewOut[int]().Owned(a, "tx", "o")
	aIn := connections.NewIn[int]().Owned(a, "link", "tx")
	connections.Buffer(a, "link/a", 2, aOut, aIn)
	gals.NewPausibleBisyncFIFO[int](s, "link", a, b, 4, 40)
	bOut := connections.NewOut[int]().Owned(b, "link", "rx")
	bIn := connections.NewIn[int]().Owned(b, "rx", "i")
	connections.Buffer(b, "link/b", 2, bOut, bIn)

	r := lint.Check(s)
	if len(r.Diags) != 0 {
		t.Fatalf("synchronized crossing produced diagnostics: %+v", r.Diags)
	}
	if r.Syncs != 1 {
		t.Fatalf("Syncs = %d, want 1", r.Syncs)
	}
}

func TestCDC2SameDomainSynchronizer(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 10, 0)
	gals.NewBruteForceSyncFIFO[int](s, "pointless", a, a, 4)

	d := one(t, lint.Check(s), "CDC-2")
	if d.Severity != lint.SevWarning {
		t.Fatalf("CDC-2 severity = %v, want warning", d.Severity)
	}
	if !strings.Contains(d.Message, "brute-force") || !strings.Contains(d.Message, "itself") {
		t.Fatalf("CDC-2 message %q", d.Message)
	}
}

func TestCON1UnboundPort(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 10, 0)
	connections.NewIn[int]().Owned(a, "comp", "lonely")

	d := one(t, lint.Check(s), "CON-1")
	if d.Severity != lint.SevError || d.Path != "comp.lonely" {
		t.Fatalf("CON-1 = %+v", d)
	}
}

func TestCON2DanglingAndTerminated(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 10, 0)
	// Owned producer into an anonymous consumer: dangling.
	p1 := connections.NewOut[int]().Owned(a, "comp", "dangling")
	connections.Buffer(a, "d", 1, p1, connections.NewIn[int]())
	// Same shape, declared intentional: silent.
	p2 := connections.NewOut[int]().Owned(a, "comp", "stubbed")
	connections.Buffer(a, "s", 1, p2, connections.NewIn[int](), connections.Terminator())
	// Anonymous on both ends: the checker has nothing to say.
	connections.Buffer(a, "anon", 1, connections.NewOut[int](), connections.NewIn[int]())

	r := lint.Check(s)
	d := one(t, r, "CON-2")
	if d.Severity != lint.SevWarning || d.Path != "d" {
		t.Fatalf("CON-2 = %+v", d)
	}
	if len(r.Diags) != 1 {
		t.Fatalf("diagnostics = %+v, want only the dangling warning", r.Diags)
	}
}

func TestCON3ZeroCapacity(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 10, 0)
	connections.Buffer(a, "z", 0, connections.NewOut[int](), connections.NewIn[int]())

	d := one(t, lint.Check(s), "CON-3")
	if d.Severity != lint.SevError || !strings.Contains(d.Message, "capacity 0") {
		t.Fatalf("CON-3 = %+v", d)
	}
}

func TestCON4NameCollision(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 10, 0)
	connections.Buffer(a, "dup", 2, connections.NewOut[int](), connections.NewIn[int]())
	connections.Buffer(a, "dup", 2, connections.NewOut[int](), connections.NewIn[int]())

	d := one(t, lint.Check(s), "CON-4")
	if d.Severity != lint.SevError || d.Path != "dup" {
		t.Fatalf("CON-4 = %+v", d)
	}
}

func TestDLK1CombinationalLoop(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 10, 0)
	xOut := connections.NewOut[int]().Owned(a, "x", "o")
	xIn := connections.NewIn[int]().Owned(a, "x", "i")
	yOut := connections.NewOut[int]().Owned(a, "y", "o")
	yIn := connections.NewIn[int]().Owned(a, "y", "i")
	connections.Combinational(a, "xy", xOut, yIn)
	connections.Combinational(a, "yx", yOut, xIn)

	d := one(t, lint.Check(s), "DLK-1")
	if d.Severity != lint.SevError {
		t.Fatalf("DLK-1 severity = %v", d.Severity)
	}
	if len(d.Channels) != 2 || d.Channels[0] != "xy" || d.Channels[1] != "yx" {
		t.Fatalf("DLK-1 channels = %v", d.Channels)
	}
}

func TestDLK1BrokenByBuffer(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 10, 0)
	xOut := connections.NewOut[int]().Owned(a, "x", "o")
	xIn := connections.NewIn[int]().Owned(a, "x", "i")
	yOut := connections.NewOut[int]().Owned(a, "y", "o")
	yIn := connections.NewIn[int]().Owned(a, "y", "i")
	connections.Combinational(a, "xy", xOut, yIn)
	connections.Buffer(a, "yx", 2, yOut, xIn)

	if r := lint.Check(s); len(r.Diags) != 0 {
		t.Fatalf("buffered back-edge still diagnosed: %+v", r.Diags)
	}
}

// ring builds an n-component ring of Buffer channels of the given
// capacities (len(caps) == n), returning the channel names.
func ring(s *sim.Simulator, caps []int) []string {
	a := s.AddClock("clk", 10, 0)
	n := len(caps)
	outs := make([]*connections.Out[int], n)
	ins := make([]*connections.In[int], n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		outs[i] = connections.NewOut[int]().Owned(a, nodeName(i), "o")
		ins[i] = connections.NewIn[int]().Owned(a, nodeName(i), "i")
	}
	for i := 0; i < n; i++ {
		names[i] = "ring" + string(rune('a'+i))
		connections.Buffer(a, names[i], caps[i], outs[i], ins[(i+1)%len(caps)])
	}
	return names
}

func nodeName(i int) string { return "n" + string(rune('a'+i)) }

func TestDLK2ZeroSlackCycle(t *testing.T) {
	s := sim.New()
	chans := ring(s, []int{1, 1, 1})

	r := lint.Check(s)
	d := one(t, r, "DLK-2")
	if d.Severity != lint.SevWarning {
		t.Fatalf("DLK-2 severity = %v, want warning", d.Severity)
	}
	if len(d.Channels) != len(chans) {
		t.Fatalf("DLK-2 channels = %v, want all of %v", d.Channels, chans)
	}
}

func TestDLK2SilentWithSlack(t *testing.T) {
	// One depth-2 buffer on the cycle gives it slack; the ring can
	// always absorb a token, so nothing fires.
	s := sim.New()
	ring(s, []int{1, 2, 1})
	if r := lint.Check(s); len(r.Diags) != 0 {
		t.Fatalf("slack cycle diagnosed: %+v", r.Diags)
	}
}

func TestDLK2LatencyCountsAsSlack(t *testing.T) {
	s := sim.New()
	a := s.AddClock("clk", 10, 0)
	xOut := connections.NewOut[int]().Owned(a, "x", "o")
	xIn := connections.NewIn[int]().Owned(a, "x", "i")
	yOut := connections.NewOut[int]().Owned(a, "y", "o")
	yIn := connections.NewIn[int]().Owned(a, "y", "i")
	connections.Buffer(a, "xy", 1, xOut, yIn, connections.WithLatency(1))
	connections.Buffer(a, "yx", 1, yOut, xIn)
	if r := lint.Check(s); len(r.Diags) != 0 {
		t.Fatalf("retimed cycle diagnosed: %+v", r.Diags)
	}
}

func TestWriteTreeGolden(t *testing.T) {
	s := sim.New()
	a := s.AddClock("clk", 10, 0)
	connections.NewIn[int]().Owned(a, "soc/widow", "in")
	p := connections.NewOut[int]().Owned(a, "soc/dangler", "out")
	connections.Buffer(a, "soc/dangling", 2, p, connections.NewIn[int]())

	var b strings.Builder
	lint.Check(s).WriteTree(&b)
	want := `soc
  widow.in
    CON-1 error = In port declared by soc/widow is never bound to a channel
      hint: bind it with connections.Buffer/Pipeline/Bypass/Combinational, or drop the Owned declaration
  dangling
    CON-2 warning = producer soc/dangler.out drives a channel whose consumer end is anonymous
      hint: pass connections.Terminator() if the stub is intentional, or declare the consumer with Owned
lint: 1 channels, 2 ports, 0 synchronizers, 0 partitions: 1 errors, 1 warnings
`
	if b.String() != want {
		t.Fatalf("tree output:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWriteJSON(t *testing.T) {
	s := sim.New()
	a := s.AddClock("a", 10, 0)
	b := s.AddClock("b", 13, 0)
	out := connections.NewOut[int]().Owned(a, "x", "o")
	in := connections.NewIn[int]().Owned(b, "y", "i")
	connections.Buffer(a, "ch", 2, out, in)

	var sb strings.Builder
	if err := lint.Check(s).WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"rule": "CDC-1"`, `"severity": "error"`, `"errors": 1`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("JSON dump missing %s:\n%s", want, sb.String())
		}
	}
}

func TestCheckHLSCleanDesign(t *testing.T) {
	r := lint.CheckHLS(hls.MACDesign(16))
	if len(r.Diags) != 0 {
		t.Fatalf("mac16 diagnosed: %+v", r.Diags)
	}
}

func TestCheckHLSDeadOp(t *testing.T) {
	in := &hls.Op{ID: 0, Kind: hls.OpInput, Width: 8, Name: "a"}
	dead := &hls.Op{ID: 1, Kind: hls.OpConst, Width: 8, Value: 3}
	out := &hls.Op{ID: 2, Kind: hls.OpOutput, Width: 8, Name: "y", Args: []*hls.Op{in}}
	d := &hls.Design{Name: "deadop", Ops: []*hls.Op{in, dead, out}, Inputs: []*hls.Op{in}, Outputs: []*hls.Op{out}}

	dg := one(t, lint.CheckHLS(d), "HLS-2")
	if dg.Severity != lint.SevWarning || !strings.Contains(dg.Message, "op 1") {
		t.Fatalf("HLS-2 = %+v", dg)
	}
}

func TestCheckHLSDuplicatePort(t *testing.T) {
	a := &hls.Op{ID: 0, Kind: hls.OpInput, Width: 8, Name: "a"}
	a2 := &hls.Op{ID: 1, Kind: hls.OpInput, Width: 8, Name: "a"}
	sum := &hls.Op{ID: 2, Kind: hls.OpAdd, Width: 8, Args: []*hls.Op{a, a2}}
	out := &hls.Op{ID: 3, Kind: hls.OpOutput, Width: 8, Name: "y", Args: []*hls.Op{sum}}
	d := &hls.Design{Name: "dup", Ops: []*hls.Op{a, a2, sum, out}, Inputs: []*hls.Op{a, a2}, Outputs: []*hls.Op{out}}

	dg := one(t, lint.CheckHLS(d), "HLS-3")
	if dg.Severity != lint.SevError || !strings.Contains(dg.Message, `"a"`) {
		t.Fatalf("HLS-3 = %+v", dg)
	}
}

func TestCheckHLSInvalidDesign(t *testing.T) {
	bad := &hls.Op{ID: 7, Kind: hls.OpInput, Width: 8, Name: "a"} // wrong ID
	d := &hls.Design{Name: "invalid", Ops: []*hls.Op{bad}, Inputs: []*hls.Op{bad}}

	r := lint.CheckHLS(d)
	dg := one(t, r, "HLS-1")
	if dg.Severity != lint.SevError || r.Errors() != 1 {
		t.Fatalf("HLS-1 = %+v", dg)
	}
}
