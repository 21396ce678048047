package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// ErrCanaryRejected marks a candidate snapshot that failed its
// pre-promotion canary: the swap was refused and the previous snapshot
// kept serving. Reload handlers map it to 422 — the artifact decoded,
// but its content failed live invariants, so retrying the same bytes
// is pointless.
var ErrCanaryRejected = errors.New("serve: canary rejected candidate snapshot")

// CanaryConfig tunes the pre-promotion canary that gates every
// snapshot swap (full reload, delta patch, fleet replica sync). The
// zero value is the default-on configuration: structural invariants
// over a deterministic 64-ASN sample, no θ gate.
type CanaryConfig struct {
	// Disable turns the canary off entirely (swaps promote unchecked).
	Disable bool
	// Samples is how many ASNs the canary replays against the candidate
	// (default 64, clamped to the index size). The sample positions are
	// a pure function of the index size, so a rejection reproduces
	// bit-for-bit.
	Samples int
	// ThetaTolerance, when > 0, rejects a candidate whose θ differs
	// from the serving snapshot's by more than this absolute amount — a
	// guard against swapping in a structurally valid but statistically
	// absurd mapping. 0 disables the θ gate (reloads that legitimately
	// change the corpus swing θ freely).
	ThetaTolerance float64
}

// canarySearches is how many of the sampled clusters also get an
// end-to-end Search replay: fewer than the samples, because a search
// costs a posting-list merge, not a binary search.
const canarySearches = 8

func (c CanaryConfig) samples() int {
	if c.Samples <= 0 {
		return 64
	}
	return c.Samples
}

// canaryCheck replays a deterministic sample of lookups and searches
// against the candidate snapshot before it is promoted. It proves,
// for every sampled ASN: the rendered /v1/as body is valid JSON, the
// index resolves the ASN to a cluster that actually contains it, the
// cluster's rendered /v1/org body is valid JSON, and every token of the
// cluster's name resolves back to the cluster through the search
// index. prev may be nil (no θ comparison). All failures wrap
// ErrCanaryRejected.
//
// The checks deliberately cross section boundaries — index ↔
// membership ↔ names ↔ token postings — because single-section
// damage that survives the content hash (a poisoned artifact re-signed
// by an attacker, or a bug in a delta patch) is exactly what a hash
// check cannot see.
func canaryCheck(next, prev *Snapshot, cfg CanaryConfig) error {
	if cfg.Disable {
		return nil
	}
	if next == nil {
		return fmt.Errorf("%w: nil snapshot", ErrCanaryRejected)
	}
	st := next.Stats()
	if st.Orgs == 0 || st.ASNs == 0 {
		return fmt.Errorf("%w: empty index (%d orgs, %d networks)", ErrCanaryRejected, st.Orgs, st.ASNs)
	}
	if prev != nil && cfg.ThetaTolerance > 0 {
		if d := st.Theta - prev.Stats().Theta; d > cfg.ThetaTolerance || -d > cfg.ThetaTolerance {
			return fmt.Errorf("%w: theta %.6f drifted %+.6f from serving %.6f (tolerance %.6f)",
				ErrCanaryRejected, st.Theta, d, prev.Stats().Theta, cfg.ThetaTolerance)
		}
	}

	keys := next.index.Keys()
	n := len(keys)
	samples := cfg.samples()
	if samples > n {
		samples = n
	}
	var scratch []byte
	for i := 0; i < samples; i++ {
		pos := int(whiten64(1+uint64(i)) % uint64(n))
		a := keys[pos]
		var ok bool
		scratch, ok = next.AppendASBody(scratch[:0], a)
		if !ok {
			return fmt.Errorf("%w: indexed AS%d has no rendered body", ErrCanaryRejected, a)
		}
		if !json.Valid(scratch) {
			return fmt.Errorf("%w: /v1/as body for AS%d is not valid JSON", ErrCanaryRejected, a)
		}
		c, ok := next.Lookup(a)
		if !ok {
			return fmt.Errorf("%w: indexed AS%d resolves to no cluster", ErrCanaryRejected, a)
		}
		if _, ok := slices.BinarySearch(c.ASNs, a); !ok {
			return fmt.Errorf("%w: AS%d maps to org %d which does not contain it", ErrCanaryRejected, a, c.ID)
		}
		scratch, ok = next.AppendOrgBody(scratch[:0], c.ID)
		if !ok {
			return fmt.Errorf("%w: org %d has no rendered body", ErrCanaryRejected, c.ID)
		}
		if !json.Valid(scratch) {
			return fmt.Errorf("%w: /v1/org body for org %d is not valid JSON", ErrCanaryRejected, c.ID)
		}
		lower := strings.ToLower(c.Name)
		if err := canaryCheckTokens(next, c.ID, lower); err != nil {
			return err
		}
		if i < canarySearches {
			if err := canaryCheckSearch(next, c.ID, lower); err != nil {
				return err
			}
		}
	}
	return nil
}

// canaryCheckTokens proves every token of cluster id's name, lowered,
// resolves back to id through the token index — the postings a
// /v1/search for that organization's name would merge.
func canaryCheckTokens(s *Snapshot, id int, lower string) error {
	for tok, rest := nextToken(lower); tok != ""; tok, rest = nextToken(rest) {
		ti := s.findToken(tok)
		if ti == s.tokens.Len() || s.tokens.At(ti) != tok {
			return fmt.Errorf("%w: org %d name token %q missing from search index", ErrCanaryRejected, id, tok)
		}
		if _, ok := slices.BinarySearch(s.postings.At(ti), int32(id)); !ok {
			return fmt.Errorf("%w: org %d missing from postings of its own name token %q", ErrCanaryRejected, id, tok)
		}
	}
	return nil
}

// canaryCheckSearch runs one end-to-end Search for the cluster's first
// name token and requires a non-empty result — the full query path
// (scratch pool, posting merge, materialization), bounded so the
// canary stays cheap on large snapshots.
func canaryCheckSearch(s *Snapshot, id int, lower string) error {
	tok, _ := nextToken(lower)
	if tok == "" {
		return nil // unnamed cluster; nothing searchable
	}
	if hits := s.Search(tok, 8); len(hits) == 0 {
		return fmt.Errorf("%w: search for %q (org %d name token) returned nothing", ErrCanaryRejected, tok, id)
	}
	return nil
}

// whiten64 is one splitmix64 step — the same mixing the faultinject
// harness uses, giving the canary deterministic, well-spread sample
// positions from sequential seeds.
func whiten64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
