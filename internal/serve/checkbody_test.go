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
		spec, err := ParseSpec([]byte(tc.spec))
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		sum := exp.Run([]exp.Job{{Name: "job", Run: func(c *exp.Ctx) (any, error) {
			return Execute(c, spec, nil)
		}}})
		r := sum.Results[0]
		if r.Failed() {
			t.Fatalf("%s: %v", tc.spec, r.Err)
		}
		h := fnv.New64a()
		h.Write(r.Value.([]byte))
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
			t.Errorf("%s body hash = %s, want %s:\n%s", tc.spec, got, tc.want, r.Value)
		}
	}
}
