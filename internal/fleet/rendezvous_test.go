package fleet

import (
	"testing"
)

// testKeys yields a deterministic spread of 64-bit keys (Weyl sequence
// on the golden ratio) standing in for spec content hashes.
func testKeys(n int) []uint64 {
	keys := make([]uint64, n)
	var x uint64
	for i := range keys {
		x += 0x9e3779b97f4a7c15
		keys[i] = x
	}
	return keys
}

func TestRankOwnersIsPermutation(t *testing.T) {
	workers := []string{"w1", "w2", "w3", "w4"}
	for _, key := range testKeys(64) {
		ranked := RankOwners(key, workers)
		if len(ranked) != len(workers) {
			t.Fatalf("key %#x: got %d entries, want %d", key, len(ranked), len(workers))
		}
		seen := map[string]bool{}
		for _, name := range ranked {
			if seen[name] {
				t.Fatalf("key %#x: duplicate %q in ranking %v", key, name, ranked)
			}
			seen[name] = true
		}
		for _, name := range workers {
			if !seen[name] {
				t.Fatalf("key %#x: %q missing from ranking %v", key, name, ranked)
			}
		}
	}
}

func TestRankOwnersDoesNotMutateInput(t *testing.T) {
	workers := []string{"w3", "w1", "w2"}
	RankOwners(42, workers)
	if workers[0] != "w3" || workers[1] != "w1" || workers[2] != "w2" {
		t.Fatalf("input slice mutated: %v", workers)
	}
}

func TestRankOwnersOrderIndependent(t *testing.T) {
	a := []string{"w1", "w2", "w3", "w4"}
	b := []string{"w4", "w2", "w1", "w3"}
	for _, key := range testKeys(64) {
		ra, rb := RankOwners(key, a), RankOwners(key, b)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("key %#x: ranking depends on input order: %v vs %v", key, ra, rb)
			}
		}
	}
}

// TestMinimalRemapOnDeath is the property the fleet's cache affinity
// rests on: removing one worker moves only the keys it owned.
func TestMinimalRemapOnDeath(t *testing.T) {
	workers := []string{"w1", "w2", "w3", "w4", "w5"}
	keys := testKeys(4096)
	dead := "w3"
	survivors := make([]string, 0, len(workers)-1)
	for _, w := range workers {
		if w != dead {
			survivors = append(survivors, w)
		}
	}
	moved := 0
	for _, key := range keys {
		before := RankOwners(key, workers)[0]
		after := RankOwners(key, survivors)[0]
		if before != dead && before != after {
			t.Fatalf("key %#x moved %q -> %q though %q died", key, before, after, dead)
		}
		if before == dead {
			moved++
		}
	}
	// Sanity: the dead worker owned a nontrivial share, so the test
	// actually exercised remapping.
	if moved < len(keys)/10 {
		t.Fatalf("dead worker owned only %d/%d keys; test is vacuous", moved, len(keys))
	}
}

// TestMinimalRemapOnJoin: a joining worker only steals keys for itself.
func TestMinimalRemapOnJoin(t *testing.T) {
	before := []string{"w1", "w2", "w3"}
	after := []string{"w1", "w2", "w3", "w4"}
	stolen := 0
	for _, key := range testKeys(4096) {
		ob, oa := RankOwners(key, before)[0], RankOwners(key, after)[0]
		if ob != oa {
			if oa != "w4" {
				t.Fatalf("key %#x moved %q -> %q though only w4 joined", key, ob, oa)
			}
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatal("joining worker stole no keys; test is vacuous")
	}
}

// TestOwnershipSpread: rendezvous hashing should not starve any worker.
// The bound is loose (half the fair share) — this guards against a
// broken weight function, not against statistical wobble.
func TestOwnershipSpread(t *testing.T) {
	workers := []string{"w1", "w2", "w3", "w4"}
	keys := testKeys(4096)
	counts := map[string]int{}
	for _, key := range keys {
		counts[RankOwners(key, workers)[0]]++
	}
	fair := len(keys) / len(workers)
	for _, w := range workers {
		if counts[w] < fair/2 {
			t.Fatalf("worker %q owns %d of %d keys (fair share %d): weight function is skewed",
				w, counts[w], len(keys), fair)
		}
	}
}
