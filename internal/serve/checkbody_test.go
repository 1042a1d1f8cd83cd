package serve

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/exp"
)

// TestCheckBodiesPinned pins the exact bytes of the lint, rateck and
// verify result bodies by their FNV-64a hash. Repeat-identity alone
// would let a refactor of the body shape slip through, silently
// invalidating every cached result in a fleet.
func TestCheckBodiesPinned(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{`{"kind":"lint","test":"memcpy"}`, "c18731a293c6b7f2"},
		{`{"kind":"lint","test":"memcpy","gals":true}`, "2d1a71847e2becfa"},
		{`{"kind":"lint","test":"badcdc"}`, "61bdab25222b27be"},
		{`{"kind":"rateck","test":"memcpy"}`, "24414bf6f604d32d"},
		{`{"kind":"rateck","test":"memcpy","gals":true}`, "e3ad19196a339acc"},
		{`{"kind":"rateck","test":"badrate"}`, "bc54566ab97b995f"},
		{`{"kind":"rateck","test":"badbuf"}`, "04527be8e59b1baf"},
		{`{"kind":"verify","test":"mcserdes"}`, "e575512d3ffb85c4"},
		{`{"kind":"verify","test":"mcdeadlock","depth":8}`, "bb41639189ee4a6e"},
	}
	for _, tc := range cases {
		checkBodyHash(t, tc.spec, tc.want)
	}
}

// TestStalledBodiesPinned pins the result bodies of jobs that run stall
// injection: the benchmark stream's stall-hunt spec (bench/service.go),
// whose armed channels draw on every edge and whose diagnosis reports
// each channel's backpressure, and cold sims at stall 0.3 under GALS and
// with signal-accurate channels, a second probability beside the 0.05
// of TestColdSimStallPinned (internal/soc).
// A change to how a channel draws its stalls that moved one draw moves
// these bytes.
func TestStalledBodiesPinned(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{`{"kind":"stallhunt","stall":0.3,"messages":40,"seeds":2,"seed":1}`, "8942dad46174e77e"},
		{`{"kind":"sim","test":"memcpy","gals":true,"stall":0.3,"seed":1}`, "62211433ed009a2a"},
		{`{"kind":"sim","test":"memcpy","mode":"signal","stall":0.3,"seed":1}`, "75417901335983d4"},
	}
	for _, tc := range cases {
		checkBodyHash(t, tc.spec, tc.want)
	}
}

// checkBodyHash executes spec and fails t unless the FNV-64a hash of its
// result body, as hex, is want.
func checkBodyHash(t *testing.T, specJSON, want string) {
	t.Helper()
	spec, err := ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatalf("%s: %v", specJSON, err)
	}
	sum := exp.Run([]exp.Job{{Name: "job", Run: func(c *exp.Ctx) (any, error) {
		return Execute(c, spec, nil)
	}}})
	r := sum.Results[0]
	if r.Failed() {
		t.Fatalf("%s: %v", specJSON, r.Err)
	}
	h := fnv.New64a()
	h.Write(r.Value.([]byte))
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("%s body hash = %s, want %s:\n%s", specJSON, got, want, r.Value)
	}
}
