package serve

import (
	"bytes"
	"testing"
)

// TestCanonicalSparseEqualsExplicit: a sparsely spelled spec and its
// fully defaulted form are the same content address.
func TestCanonicalSparseEqualsExplicit(t *testing.T) {
	sparse, err := ParseSpec([]byte(`{"kind":"sim"}`))
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := ParseSpec([]byte(`{"kind":"sim","test":"memcpy","mode":"tlm","max_cycles":10000000}`))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sparse.Canonical(), explicit.Canonical()) {
		t.Fatalf("canonical forms differ:\n%s\n%s", sparse.Canonical(), explicit.Canonical())
	}
	if sparse.Hash() != explicit.Hash() {
		t.Fatal("hashes differ for identical work")
	}
}

// TestParallelExcludedFromHash: shard width never changes results, so it
// must not fork the content address.
func TestParallelExcludedFromHash(t *testing.T) {
	a, err := ParseSpec([]byte(`{"kind":"stallhunt","seeds":4}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec([]byte(`{"kind":"stallhunt","seeds":4,"parallel":8}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("parallel leaked into the content hash")
	}
}

// TestForeignFieldsZeroed: fields a kind does not read must not fork its
// hash (a lint spec carrying a stray seed is the same lint).
func TestForeignFieldsZeroed(t *testing.T) {
	a, err := ParseSpec([]byte(`{"kind":"lint","test":"badcdc"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec([]byte(`{"kind":"lint","test":"badcdc","seed":42,"messages":9}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("kind-foreign fields leaked into the content hash")
	}
}

// TestPartitionsHashCompat pins the codec's back-compat contract around
// the decode-only partitions field: specs without it keep the content
// address they had before the field existed (golden hashes recorded
// from the pre-partition codec), and a spec that still carries it
// decodes and hashes like the same spec without it, for every kind.
func TestPartitionsHashCompat(t *testing.T) {
	golden := map[string]string{
		`{"kind":"sim"}`:                "5683b2fddb75ba97",
		`{"kind":"sim","gals":true}`:    "0a9311049c386360",
		`{"kind":"sim","partitions":0}`: "5683b2fddb75ba97",
	}
	for raw, want := range golden {
		s, err := ParseSpec([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		if got := HashString(s.Hash()); got != want {
			t.Errorf("%s hashed to %s, want pre-partition golden %s", raw, got, want)
		}
	}

	for _, pair := range [][2]string{
		{`{"kind":"sim","gals":true}`, `{"kind":"sim","gals":true,"partitions":2}`},
		{`{"kind":"lint","test":"badcdc"}`, `{"kind":"lint","test":"badcdc","partitions":4}`},
	} {
		plain, err := ParseSpec([]byte(pair[0]))
		if err != nil {
			t.Fatal(err)
		}
		old, err := ParseSpec([]byte(pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		if plain.Hash() != old.Hash() {
			t.Errorf("%s hashed apart from %s:\n%s\nvs\n%s", pair[1], pair[0], old.Canonical(), plain.Canonical())
		}
		if old.Partitions != 0 {
			t.Errorf("%s: normalize kept partitions=%d", pair[1], old.Partitions)
		}
	}
}

// badSpecs and goodSpecs are TestSpecValidation's cases; they also
// seed FuzzParseSpec.
var (
	badSpecs = []string{
		`{"kind":"nope"}`,
		`{"kind":"sim","test":"nope"}`,
		`{"kind":"sim","mode":"vhdl"}`,
		`{"kind":"sim","stall":1.5}`,
		`{"kind":"sim","typo_field":1}`,  // unknown fields fail loudly
		`{"kind":"sim","test":"badcdc"}`, // fixtures are lint-only
		`not json`,
	}
	goodSpecs = []string{
		`{"kind":"lint","test":"badloop"}`,
		`{"kind":"sim","test":"vecadd","mode":"rtl","gals":true}`,
		`{"kind":"stallhunt","stall":0.25,"messages":100,"seeds":4,"seed":7}`,
		`{"kind":"qor"}`,
		`{"kind":"fig6","max_cycles":100000}`,
	}
)

func TestSpecValidation(t *testing.T) {
	for _, spec := range badSpecs {
		if _, err := ParseSpec([]byte(spec)); err == nil {
			t.Errorf("spec %s accepted, want error", spec)
		}
	}
	for _, spec := range goodSpecs {
		if _, err := ParseSpec([]byte(spec)); err != nil {
			t.Errorf("spec %s rejected: %v", spec, err)
		}
	}
}

// distinctSpecs request pairwise different work.
var distinctSpecs = []string{
	`{"kind":"sim","test":"memcpy"}`,
	`{"kind":"sim","test":"vecadd"}`,
	`{"kind":"sim","test":"memcpy","gals":true}`,
	`{"kind":"sim","test":"memcpy","mode":"rtl"}`,
	`{"kind":"sim","test":"memcpy","stall":0.2,"seed":3}`,
	`{"kind":"sim","test":"memcpy","stall":0.2,"seed":4}`,
	`{"kind":"lint","test":"memcpy"}`,
}

// TestDistinctWorkDistinctHash: result-relevant fields must fork the
// address.
func TestDistinctWorkDistinctHash(t *testing.T) {
	seen := map[uint64]string{}
	for _, raw := range distinctSpecs {
		s, err := ParseSpec([]byte(raw))
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		if prev, dup := seen[s.Hash()]; dup {
			t.Fatalf("hash collision between %s and %s", prev, raw)
		}
		seen[s.Hash()] = raw
	}
}

// FuzzParseSpec feeds arbitrary bytes to the spec decoder every POST
// /jobs and every worker Submit frame runs. It must never panic, and an
// accepted spec's canonical form must parse back to the same content
// address: that fixed point is what makes a gateway's routing key equal
// the worker's cache key.
func FuzzParseSpec(f *testing.F) {
	for _, seeds := range [][]string{badSpecs, goodSpecs, distinctSpecs} {
		for _, s := range seeds {
			f.Add([]byte(s))
		}
	}
	f.Add([]byte(`{"kind":"verify","test":"mcgals","depth":8}`))
	f.Add([]byte(`{"kind":"sim","gals":true,"partitions":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		canon := spec.Canonical()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %s does not parse: %v", canon, err)
		}
		if again.Hash() != spec.Hash() {
			t.Fatalf("canonical form %s re-hashes to %s, want %s\n(re-encoded %s)",
				canon, HashString(again.Hash()), HashString(spec.Hash()), again.Canonical())
		}
	})
}
