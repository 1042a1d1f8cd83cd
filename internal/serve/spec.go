package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/connections"
	"repro/internal/mc"
	"repro/internal/soc"
)

// Job kinds the service executes. Each maps to one of the repo's batch
// workloads; see jobs.go for the adapters. lint, rateck and verify are
// the names of the internal/analysis passes, which run through one
// adapter.
const (
	KindSim       = "sim"       // one SoC-level test (internal/soc)
	KindLint      = "lint"      // static design-rule check of one design (internal/lint)
	KindRateck    = "rateck"    // static communication-rate analysis of one design (internal/ratecheck)
	KindStallHunt = "stallhunt" // §2.3 multi-seed stall-injection campaign (internal/verif)
	KindQoR       = "qor"       // HLS/synthesis QoR table (internal/core)
	KindFig6      = "fig6"      // TLM-vs-RTL cycle comparison (internal/soc)
	KindVerify    = "verify"    // bounded model check of one design's LI channel graph (internal/mc)
)

// Spec is the wire form of a job request. One flat struct covers every
// kind; Normalize fills kind-appropriate defaults and zeroes fields the
// kind does not read, so specs that request the same work canonicalize
// to the same bytes.
type Spec struct {
	Kind string `json:"kind"`

	// sim + fig6 + the analysis kinds
	Test      string `json:"test,omitempty"`       // SoC test name; the analysis kinds also accept fixtures
	Mode      string `json:"mode,omitempty"`       // tlm | signal | rtl
	GALS      bool   `json:"gals,omitempty"`       // per-partition clock generators
	MaxCycles uint64 `json:"max_cycles,omitempty"` // controller-cycle budget

	// sim + stallhunt
	Stall float64 `json:"stall,omitempty"` // stall-injection probability
	Seed  int64   `json:"seed,omitempty"`  // stall / campaign seed

	// stallhunt
	Messages int `json:"messages,omitempty"` // messages per producer
	Seeds    int `json:"seeds,omitempty"`    // campaign width (stall seeds)

	// Parallel shards campaign kinds over the in-job worker pool. It is
	// deliberately absent from the canonical encoding: parallelism never
	// changes results (internal/exp's seed-derivation invariant), so two
	// submissions differing only here are the same content address.
	Parallel int `json:"parallel,omitempty"`

	// Partitions is accepted so that specs written for the removed
	// partition-parallel engine still decode. Every kind runs on the one
	// sequential kernel, so Normalize zeroes it and it never reaches the
	// canonical encoding.
	Partitions int `json:"partitions,omitempty"`

	// Depth is the verify kind's unrolling bound. It is appended to the
	// canonical encoding only when set, so every spec hash minted before
	// the verify kind existed is unchanged.
	Depth int `json:"depth,omitempty"`
}

// Normalize validates the spec and rewrites it into canonical form:
// defaults filled, fields foreign to the kind zeroed. It must be called
// before Canonical or Hash; the server normalizes every spec at
// admission so equal work hashes equally however sparsely the client
// spelled it.
func (s *Spec) Normalize() error {
	s.Partitions = 0 // decode-only; no runner reads it
	if p, ok := analysis.Lookup(s.Kind); ok {
		return s.normalizeCheck(p)
	}
	switch s.Kind {
	case KindSim:
		if s.Test == "" {
			s.Test = "memcpy"
		}
		if tc, ok := soc.Lookup(s.Test); !ok || tc.Pass != "" {
			return fmt.Errorf("serve: unknown sim test %q", s.Test)
		}
		if err := s.normalizeMode(); err != nil {
			return err
		}
		if s.MaxCycles == 0 {
			s.MaxCycles = 10_000_000
		}
		if s.Stall < 0 || s.Stall >= 1 {
			return fmt.Errorf("serve: stall probability %v out of [0,1)", s.Stall)
		}
		if s.Stall > 0 && s.Seed == 0 {
			s.Seed = 1
		}
		if s.Stall == 0 {
			s.Seed = 0 // unread without injection; don't fork the hash
		}
		s.Messages, s.Seeds = 0, 0
	case KindStallHunt:
		if s.Stall == 0 {
			s.Stall = 0.3
		}
		if s.Stall < 0 || s.Stall >= 1 {
			return fmt.Errorf("serve: stall probability %v out of [0,1)", s.Stall)
		}
		if s.Messages == 0 {
			s.Messages = 200
		}
		if s.Seeds == 0 {
			s.Seeds = 8
		}
		if s.Messages < 1 || s.Seeds < 1 {
			return fmt.Errorf("serve: stallhunt needs messages >= 1 and seeds >= 1")
		}
		if s.Seed == 0 {
			s.Seed = 1
		}
		s.Test, s.Mode, s.GALS, s.MaxCycles = "", "", false, 0
	case KindQoR:
		s.Test, s.Mode, s.GALS = "", "", false
		s.MaxCycles, s.Stall, s.Seed, s.Messages, s.Seeds = 0, 0, 0, 0, 0
	case KindFig6:
		if s.MaxCycles == 0 {
			s.MaxCycles = 10_000_000
		}
		s.Test, s.Mode, s.GALS = "", "", false
		s.Stall, s.Seed, s.Messages, s.Seeds = 0, 0, 0, 0
	default:
		// Synthetic kinds registered by the package tests pass through
		// with the spec as given; production builds register none.
		if _, ok := testKinds[s.Kind]; ok {
			if s.Parallel < 0 {
				s.Parallel = 0
			}
			return nil
		}
		return fmt.Errorf("serve: unknown job kind %q", s.Kind)
	}
	s.Depth = 0 // only depth-reading passes read it; don't fork hashes
	if s.Parallel < 0 {
		s.Parallel = 0
	}
	return nil
}

// normalizeCheck is Normalize for the analysis-pass kinds: one design
// (a shipped test or any fixture), one channel mode and clocking, and
// the unrolling bound for a pass that reads it. The mode is accepted
// for config symmetry even though the passes are mode-independent.
func (s *Spec) normalizeCheck(p analysis.Pass) error {
	if s.Test == "" {
		s.Test = p.Design
	}
	if _, ok := soc.Lookup(s.Test); !ok {
		return fmt.Errorf("serve: unknown %s design %q", s.Kind, s.Test)
	}
	if err := s.normalizeMode(); err != nil {
		return err
	}
	switch {
	case !p.Depth:
		s.Depth = 0
	case s.Depth <= 0:
		s.Depth = mc.DefaultDepth
	}
	s.MaxCycles, s.Stall, s.Seed, s.Messages, s.Seeds = 0, 0, 0, 0, 0
	if s.Parallel < 0 {
		s.Parallel = 0
	}
	return nil
}

// normalizeMode defaults the channel model to tlm and rejects unknown
// ones.
func (s *Spec) normalizeMode() error {
	if s.Mode == "" {
		s.Mode = "tlm"
	}
	if _, ok := connections.ParseMode(s.Mode); !ok {
		return fmt.Errorf("serve: unknown mode %q", s.Mode)
	}
	return nil
}

// Canonical renders the normalized spec as its canonical byte string:
// every result-relevant field, always present, in fixed order. This is
// the service's content address; two specs requesting the same work
// produce the same bytes regardless of client-side field spelling,
// omission, or worker-pool width.
func (s *Spec) Canonical() []byte {
	var b strings.Builder
	b.WriteString(`{"kind":`)
	b.Write(quoteJSON(s.Kind))
	b.WriteString(`,"test":`)
	b.Write(quoteJSON(s.Test))
	b.WriteString(`,"mode":`)
	b.Write(quoteJSON(s.Mode))
	b.WriteString(`,"gals":`)
	b.WriteString(strconv.FormatBool(s.GALS))
	b.WriteString(`,"max_cycles":`)
	b.WriteString(strconv.FormatUint(s.MaxCycles, 10))
	b.WriteString(`,"stall":`)
	b.WriteString(strconv.FormatFloat(s.Stall, 'g', -1, 64))
	b.WriteString(`,"seed":`)
	b.WriteString(strconv.FormatInt(s.Seed, 10))
	b.WriteString(`,"messages":`)
	b.WriteString(strconv.Itoa(s.Messages))
	b.WriteString(`,"seeds":`)
	b.WriteString(strconv.Itoa(s.Seeds))
	// Append-only discipline for the verify bound: present only when the
	// verify kind set it, so pre-verify spec hashes never move. The bound
	// is content (a depth-64 proof and a depth-8 proof are different
	// results), so the value itself is encoded.
	if s.Depth > 0 {
		b.WriteString(`,"depth":`)
		b.WriteString(strconv.Itoa(s.Depth))
	}
	b.WriteString("}")
	return []byte(b.String())
}

// Hash is the FNV-1a content hash of the canonical spec bytes — the
// result cache key, and a fleet gateway's routing key.
func (s *Spec) Hash() uint64 {
	h := fnv.New64a()
	h.Write(s.Canonical())
	return h.Sum64()
}

// HashString renders a content hash in the fixed-width hex form used in
// API responses and logs.
func HashString(h uint64) string { return fmt.Sprintf("%016x", h) }

// quoteJSON renders s as a JSON string literal (deterministic escaping).
func quoteJSON(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return []byte(`""`)
	}
	return b
}

// ParseSpec decodes and normalizes a client-submitted spec. Unknown
// fields are rejected so a typoed knob fails loudly instead of silently
// hashing to different work.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("serve: bad spec: %w", err)
	}
	if err := s.Normalize(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
