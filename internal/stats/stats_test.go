package stats

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestSnapshotSortedAndPollsSources(t *testing.T) {
	r := New()
	r.Source("b", func(emit Emit) { emit("x", 1) })
	r.Source("a", func(emit Emit) { emit("y", 2) })
	n := 0.0
	r.Source("c", func(emit Emit) { emit("dyn", n) })
	r.TreeSource(func(emit EmitAt) { emit("a", "z", 9) })

	n = 5
	ms := r.Snapshot()
	want := []Metric{{"a", "y", 2}, {"a", "z", 9}, {"b", "x", 1}, {"c", "dyn", 5}}
	if len(ms) != len(want) {
		t.Fatalf("snapshot = %v, want %v", ms, want)
	}
	for i := range want {
		if ms[i] != want[i] {
			t.Fatalf("snapshot[%d] = %v, want %v (sorted path-then-name)", i, ms[i], want[i])
		}
	}
	// Sources are polled per snapshot, not at registration.
	n = 7
	ms = r.Snapshot()
	if ms[3].Value != 7 {
		t.Fatalf("source not re-polled: %v", ms[3])
	}
}

func TestTotalPrefixSemantics(t *testing.T) {
	ms := []Metric{
		{"soc/noc/r[0]", "flits", 3},
		{"soc/noc/r[1]", "flits", 4},
		{"soc/nocx", "flits", 100}, // sibling, must not match "soc/noc"
		{"soc/noc", "flits", 1},    // exact path matches
		{"soc/noc/r[0]", "other", 50},
	}

	if got := Total(ms, "soc/noc", "flits"); got != 8 {
		t.Fatalf("Total(soc/noc, flits) = %v, want 8", got)
	}
	if got := Total(ms, "", "flits"); got != 108 {
		t.Fatalf("Total(\"\", flits) = %v, want 108", got)
	}
	if got := Total(ms, "soc/noc/r[2]", "flits"); got != 0 {
		t.Fatalf("Total of absent path = %v, want 0", got)
	}
}

func TestDumpTreeShape(t *testing.T) {
	r := New()
	r.Source("soc/pe[0]", func(emit Emit) {
		emit("kernels", 2)
		emit("occ", 1.25)
	})
	r.Source("soc/pe[1]", func(emit Emit) { emit("kernels", 3) })
	var buf bytes.Buffer
	r.Dump(&buf)
	want := "soc\n" +
		"  pe[0]\n" +
		"    kernels = 2\n" +
		"    occ = 1.2500\n" +
		"  pe[1]\n" +
		"    kernels = 3\n"
	if buf.String() != want {
		t.Fatalf("dump:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// Replicated components must dump in natural index order: pe[2] before
// pe[10], not the lexical pe[1], pe[10], pe[11], pe[2] ordering.
func TestSnapshotNaturalIndexOrder(t *testing.T) {
	r := New()
	const numPEs = 12
	// Register in a scrambled order so the sort does the work.
	for _, i := range []int{7, 0, 10, 3, 11, 1, 8, 5, 2, 9, 6, 4} {
		r.Source(fmt.Sprintf("soc/pe[%d]", i), func(emit Emit) { emit("kernels", float64(i)) })
	}
	ms := r.Snapshot()
	if len(ms) != numPEs {
		t.Fatalf("snapshot has %d metrics, want %d", len(ms), numPEs)
	}
	for i, m := range ms {
		want := fmt.Sprintf("soc/pe[%d]", i)
		if m.Path != want {
			t.Fatalf("snapshot[%d].Path = %q, want %q (natural index order)", i, m.Path, want)
		}
	}
	// The tree dump lists replicas in the same natural order.
	var buf bytes.Buffer
	r.Dump(&buf)
	prev := -1
	for _, line := range strings.Split(buf.String(), "\n") {
		var idx int
		if n, _ := fmt.Sscanf(strings.TrimSpace(line), "pe[%d]", &idx); n == 1 {
			if idx != prev+1 {
				t.Fatalf("tree lists pe[%d] after pe[%d]:\n%s", idx, prev, buf.String())
			}
			prev = idx
		}
	}
	if prev != numPEs-1 {
		t.Fatalf("tree listed %d PE nodes, want %d", prev+1, numPEs)
	}
}

func TestNaturalCmpProperties(t *testing.T) {
	ordered := []string{"", "a", "a/b", "pe[0]", "pe[2]", "pe[10]", "r2", "r10", "z"}
	for i, a := range ordered {
		for j, b := range ordered {
			got := naturalCmp(a, b)
			switch {
			case i < j && got >= 0:
				t.Errorf("naturalCmp(%q, %q) = %d, want < 0", a, b, got)
			case i == j && got != 0:
				t.Errorf("naturalCmp(%q, %q) = %d, want 0", a, b, got)
			case i > j && got <= 0:
				t.Errorf("naturalCmp(%q, %q) = %d, want > 0", a, b, got)
			}
		}
	}
	// Zero-padding keeps the order total and deterministic.
	if naturalCmp("pe[01]", "pe[1]") >= 0 || naturalCmp("pe[1]", "pe[01]") <= 0 {
		t.Error("zero-padding tiebreak not antisymmetric")
	}
}

// seedRegistry holds a router's integral flit count and a fractional
// power figure.
func seedRegistry() *Registry {
	r := New()
	r.Source("soc/noc/r[3]", func(emit Emit) { emit("flits_out", 17) })
	r.Source("soc/power", func(emit Emit) { emit("total_mw", 42.5) })
	return r
}

func TestJSONRoundTrip(t *testing.T) {
	r := seedRegistry()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"metrics"`) {
		t.Fatalf("dump missing metrics key: %s", buf.String())
	}
	ms, err := ParseJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	orig := r.Snapshot()
	if len(ms) != len(orig) {
		t.Fatalf("roundtrip lost metrics: %v vs %v", ms, orig)
	}
	for i := range orig {
		if ms[i] != orig[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, ms[i], orig[i])
		}
	}
	if Total(ms, "soc", "flits_out") != 17 {
		t.Fatal("Total over parsed metrics broken")
	}
	if _, err := ParseJSON([]byte("{nope")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

// TestWriteMetricsJSONGoldenBytes pins the canonical dump encoding down
// to the byte: key order, indentation, float spelling. The service
// layer's content-addressed result cache serves stored bytes verbatim
// and asserts recomputed results match them, so this format must never
// drift nondeterministically.
func TestWriteMetricsJSONGoldenBytes(t *testing.T) {
	ms := []Metric{
		{Path: "serve/cache", Name: "hits", Value: 3},
		{Path: "soc/pe[2]", Name: "util", Value: 0.25},
		{Path: "", Name: "uptime", Value: 1e21},
	}
	const golden = "{\n \"metrics\": [\n" +
		"  {\"path\":\"serve/cache\",\"name\":\"hits\",\"value\":3},\n" +
		"  {\"path\":\"soc/pe[2]\",\"name\":\"util\",\"value\":0.25},\n" +
		"  {\"path\":\"\",\"name\":\"uptime\",\"value\":1e+21}\n" +
		" ]\n}\n"
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, ms); err != nil {
		t.Fatal(err)
	}
	if buf.String() != golden {
		t.Fatalf("canonical dump drifted:\ngot:\n%s\nwant:\n%s", buf.String(), golden)
	}
	// The canonical form must still be plain JSON for ParseJSON consumers.
	parsed, err := ParseJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(ms) {
		t.Fatalf("roundtrip lost metrics: %v", parsed)
	}
	for i := range ms {
		if parsed[i] != ms[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, parsed[i], ms[i])
		}
	}
}

// TestWriteMetricsJSONDeterministicAcrossInputOrder feeds the same
// multiset of metrics in two different orders — including a (path, name)
// collision — and requires byte-identical dumps after SortMetrics.
func TestWriteMetricsJSONDeterministicAcrossInputOrder(t *testing.T) {
	a := []Metric{
		{Path: "q", Name: "depth", Value: 2},
		{Path: "q", Name: "depth", Value: 1}, // same key, different source
		{Path: "p", Name: "x", Value: 7},
	}
	b := []Metric{a[2], a[0], a[1]}
	render := func(ms []Metric) string {
		SortMetrics(ms)
		var buf bytes.Buffer
		if err := WriteMetricsJSON(&buf, ms); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if ra, rb := render(a), render(b); ra != rb {
		t.Fatalf("dump depends on input order:\n%s\nvs\n%s", ra, rb)
	}
}

func TestFormatJSONFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"}, {17, "17"}, {-3, "-3"}, {42.5, "42.5"},
		{0.1, "0.1"}, {1e21, "1e+21"},
	}
	for _, c := range cases {
		if got := FormatJSONFloat(c.v); got != c.want {
			t.Errorf("FormatJSONFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	for _, bad := range []float64{nan(), inf()} {
		if got := FormatJSONFloat(bad); got != "0" {
			t.Errorf("FormatJSONFloat(non-finite) = %q, want 0", got)
		}
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

// FuzzParseJSON feeds arbitrary bytes to the metrics-dump decoder that
// reads a daemon's /metrics (socbench) and every campaign job's stats
// dump (internal/exp). It must never panic,
// and any dump it accepts must survive the canonical encoder: writing
// the parsed metrics with WriteMetricsJSON and parsing them again gives
// back equal metrics.
func FuzzParseJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := seedRegistry().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	buf.Reset()
	if err := WriteMetricsJSON(&buf, []Metric{
		{Path: "serve/cache", Name: "hits", Value: 3},
		{Path: "soc/pe[2]", Name: "util", Value: 0.25},
		{Path: "", Name: "uptime", Value: 1e21},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("{nope"))
	f.Add([]byte(`{"metrics":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := ParseJSON(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteMetricsJSON(&out, ms); err != nil {
			t.Fatal(err)
		}
		again, err := ParseJSON(out.Bytes())
		if err != nil {
			t.Fatalf("re-encoded dump does not parse: %v\n%s", err, out.Bytes())
		}
		if len(again) != len(ms) {
			t.Fatalf("round trip kept %d of %d metrics", len(again), len(ms))
		}
		for i := range ms {
			if again[i] != ms[i] {
				t.Fatalf("round trip[%d] = %+v, want %+v", i, again[i], ms[i])
			}
		}
	})
}
