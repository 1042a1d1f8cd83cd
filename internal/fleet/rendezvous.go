package fleet

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"sort"
)

// Rendezvous (highest-random-weight) hashing decides which worker owns
// a job's content hash. Every (key, worker) pair gets an independent
// pseudo-random weight; the ranking sorts workers by weight. The
// property that matters for the fleet: when a worker joins or dies,
// only the keys whose top-ranked worker changed move — every other
// key's ranking among the surviving workers is untouched. Content
// hashes therefore stick to "their" worker across membership churn,
// which is what keeps the per-worker LRU result caches hot (a key's
// repeats keep landing where its result is already cached).

// weight scores one (key, worker) pair: FNV-1a over the worker name
// followed by the big-endian key bytes. The name goes first so the
// per-worker streams differ from the first byte.
func weight(key uint64, worker string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, worker)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], key)
	h.Write(b[:])
	return h.Sum64()
}

// RankOwners orders workers by descending rendezvous preference for
// key: index 0 is the owner, index 1 the first failover target, and so
// on. The input is not mutated. Ties (astronomically unlikely with a
// 64-bit weight) break by name so the ranking is total and identical
// on every gateway.
func RankOwners(key uint64, workers []string) []string {
	ranked := append([]string(nil), workers...)
	sort.Slice(ranked, func(i, j int) bool {
		wi, wj := weight(key, ranked[i]), weight(key, ranked[j])
		if wi != wj {
			return wi > wj
		}
		return ranked[i] < ranked[j]
	})
	return ranked
}
