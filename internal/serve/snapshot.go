// Package serve turns a consolidated AS-to-Organization mapping into a
// queryable network service: an immutable, pre-indexed Snapshot served
// lock-free behind an atomic pointer, JSON lookup/search/stats
// endpoints, hot snapshot reload without dropping in-flight requests,
// and per-endpoint operational metrics.
//
// The serving layer is read-mostly by construction. A Snapshot is built
// once (indexes, θ, histogram) and never mutated afterwards; the Server
// publishes it through an atomic.Pointer so concurrent request handlers
// take a consistent view with a single atomic load. Reloads build and
// validate a complete replacement Snapshot off to the side and swap it
// in atomically — a failed reload leaves the previous snapshot serving.
//
// A snapshot holds its organizations in flat tables (snapbin.Orgs: the
// display names in one string, the members in one ASN pool with
// offsets, one feature byte each) beside the packed ASN index, whether
// it was built from a mapping, loaded from a binary artifact or patched
// by a delta. It keeps no cluster.Cluster per organization and no size
// slice: lookups, search, rendering and hashing read a cluster.Cluster
// value built on the stack from the tables, and θ and the size
// histogram come from the member offsets.
//
// A full build and a delta patch get their token index from one
// builder, mergeTokens: a full build adds every organization to an
// empty base, a patch adds its new organizations to the base's
// surviving posting lists. /v1/org and /v1/as responses are rendered
// from the tables per request (snapbin.AppendOrg and snapbin.AppendAS),
// so a snapshot stores no response bytes.
package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/orgfactor"
	"github.com/nu-aqualab/borges/internal/snapbin"
)

// SizeBucket is one bar of a snapshot's organization-size histogram:
// the bar a binary artifact stores, so a histogram passes between the
// two without a copy.
type SizeBucket = snapbin.Bucket

// Health status values.
const (
	// HealthOK marks a snapshot built from a fault-free run (or loaded
	// from a file, whose provenance is unknown but complete).
	HealthOK = "ok"
	// HealthDegraded marks a snapshot whose producing run quarantined
	// work: the mapping is complete over the universe but may be
	// missing merges the dropped items would have contributed.
	HealthDegraded = "degraded"
)

// Health describes the provenance quality of a snapshot's mapping. A
// degraded snapshot still serves — a mapping missing a few merges
// beats no mapping — but /healthz, /v1/stats, and /metrics surface the
// state so operators and load balancers can distinguish "clean" from
// "best effort under faults".
type Health struct {
	// Status is HealthOK or HealthDegraded.
	Status string `json:"status"`
	// Quarantined counts the items the producing run dropped after
	// exhausting their retry budget (0 for file-loaded mappings).
	Quarantined int `json:"quarantined,omitempty"`
	// Detail is a short operator-facing annotation, e.g. which
	// inference chains degraded.
	Detail string `json:"detail,omitempty"`
}

// Stats are a snapshot's precomputed corpus-level statistics.
type Stats struct {
	// Orgs and ASNs count organizations and covered networks.
	Orgs, ASNs int
	// Theta is the normalised Organization Factor (§5.4).
	Theta float64
	// MultiASOrgs counts organizations managing more than one network.
	MultiASOrgs int
	// LargestOrg is the member count of the biggest organization.
	LargestOrg int
	// SizeHistogram is the power-of-two organization-size distribution.
	SizeHistogram []SizeBucket
}

// Snapshot is an immutable, pre-indexed view of a Mapping ready to
// serve point lookups, name search, and statistics. All fields are
// computed at construction; a Snapshot is safe for unbounded concurrent
// use without locks.
type Snapshot struct {
	// orgs holds the organizations in canonical order, organization i
	// with ID i, and index maps every member ASN to its organization.
	// Both are flat: the snapshot costs a handful of heap objects and
	// no per-organization header, however many organizations it holds.
	orgs  snapbin.Orgs
	index cluster.Index
	stats Stats

	// tokens holds every lowercase name token, sorted, for
	// deterministic substring scans and prefix binary searches;
	// postings.At(i) lists, ascending, the cluster IDs whose display
	// name contains token i. Both are flat tables in the token
	// section's own layout: a binary load adopts them without
	// conversion, and they cost four heap objects however many
	// organizations the snapshot holds. No lowercase name is kept: one
	// is a function of its display name, lowered when a search needs it.
	tokens   snapbin.Strings
	postings snapbin.Postings

	source   string
	loadedAt time.Time
	health   Health

	// loadMode records how the snapshot came to be (LoadModeFull,
	// LoadModeBinary, LoadModeDelta); contentHash is the snapbin
	// content hash of the snapshot's logical content, preset by the
	// binary loader and computed on first use otherwise.
	loadMode    string
	contentHash string
	hashOnce    sync.Once
}

// Load modes reported by /v1/stats and /admin/reload: how the serving
// snapshot was produced.
const (
	// LoadModeFull: built from scratch (JSONL parse or pipeline run,
	// then tokenize).
	LoadModeFull = "full"
	// LoadModeBinary: decoded from a snapbin artifact, no rebuild.
	LoadModeBinary = "binary"
	// LoadModeDelta: patched incrementally from the previous snapshot
	// by a mapping delta.
	LoadModeDelta = "delta"
)

// NewSnapshot indexes a mapping for serving. The source string labels
// where the mapping came from (a file path, "pipeline", "synthetic:…")
// and is reported by /v1/stats and /metrics. It rejects nil or empty
// mappings — a serving snapshot must always answer lookups.
func NewSnapshot(m *cluster.Mapping, source string) (*Snapshot, error) {
	return newSnapshotAt(m, source, Health{Status: HealthOK}, time.Now())
}

// NewSnapshotWithHealth is NewSnapshot carrying the producing run's
// health, for pipeline-backed daemons that want degradation to travel
// with the mapping it describes.
func NewSnapshotWithHealth(m *cluster.Mapping, source string, h Health) (*Snapshot, error) {
	return newSnapshotAt(m, source, h, time.Now())
}

// newSnapshotAt is NewSnapshot with an injectable clock for tests.
func newSnapshotAt(m *cluster.Mapping, source string, health Health, now time.Time) (*Snapshot, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: nil mapping")
	}
	if m.NumASNs() == 0 || m.NumOrgs() == 0 {
		return nil, fmt.Errorf("serve: refusing to serve an empty mapping (%d orgs, %d networks)",
			m.NumOrgs(), m.NumASNs())
	}
	if health.Status == "" {
		health.Status = HealthOK
	}

	// Copy the organizations into their tables, then compute θ and the
	// histogram from the copy's offsets. The snapshot shares m's index
	// but keeps nothing else of m.
	nameBytes := 0
	for i := range m.Clusters {
		nameBytes += len(m.Clusters[i].Name)
	}
	if err := namesFit(nameBytes); err != nil {
		return nil, err
	}
	var orgs snapbin.OrgsBuilder
	orgs.Grow(len(m.Clusters), m.NumASNs(), nameBytes)
	for i := range m.Clusters {
		orgs.Add(&m.Clusters[i])
	}
	s := &Snapshot{
		orgs:     orgs.Table(),
		index:    m.Index(),
		source:   source,
		loadedAt: now,
		health:   health,
		loadMode: LoadModeFull,
	}
	var err error
	if s.stats, err = orgStats(&s.orgs, s.index.Len()); err != nil {
		return nil, fmt.Errorf("serve: mapping fails θ validation: %w", err)
	}

	// The token index is every organization added to an empty base.
	added := make(map[string][]int32, len(m.Clusters)/2+1)
	for i := range m.Clusters {
		addTokens(added, int32(i), m.Clusters[i].Name)
	}
	if s.tokens, s.postings, err = mergeTokens(snapbin.Strings{}, snapbin.Postings{}, nil, added); err != nil {
		return nil, err
	}
	return s, nil
}

// addTokens appends id to added's list of every token of name, lowered.
// Called in ascending id order, it keeps each list ascending and free
// of repeats, as mergeTokens needs.
func addTokens(added map[string][]int32, id int32, name string) {
	for tok, rest := nextToken(strings.ToLower(name)); tok != ""; tok, rest = nextToken(rest) {
		if ids := added[tok]; len(ids) == 0 || ids[len(ids)-1] != id {
			added[tok] = append(ids, id)
		}
	}
}

// mergeTokens builds a snapshot's token and posting tables, the one
// way a full build and a delta patch both get them. It walks a base's
// sorted tokens beside the sorted tokens of added (the additions'
// posting lists, filled by addTokens) and writes each token's surviving
// base ids, renumbered by remap, merged with its additions' ids. remap
// takes a base id to its new id, or to -1 when the organization is
// gone; survivors keep their relative order, so a remapped list stays
// ascending. A token left with no ids drops out, and nothing is sorted
// but the additions' tokens. A full build passes an empty base.
func mergeTokens(tokens snapbin.Strings, postings snapbin.Postings, remap []int32, added map[string][]int32) (snapbin.Strings, snapbin.Postings, error) {
	addToks := make([]string, 0, len(added))
	addBytes, addIDs := 0, 0
	for tok, ids := range added {
		addToks = append(addToks, tok)
		addBytes += len(tok)
		addIDs += len(ids)
	}
	sort.Strings(addToks)
	// Each posting stands for at least one byte of a name, so the
	// callers' check of the names keeps the posting offsets in range;
	// lowering can lengthen a name, so the tokens' bytes are checked
	// here.
	if err := namesFit(len(tokens.Text) + addBytes); err != nil {
		return snapbin.Strings{}, snapbin.Postings{}, err
	}
	var out snapbin.StringsBuilder
	out.Grow(tokens.Len()+len(addToks), len(tokens.Text)+addBytes)
	merged := snapbin.Postings{
		Items: make([]int32, 0, len(postings.Items)+addIDs),
		Off:   make([]uint32, 1, tokens.Len()+len(addToks)+1),
	}
	emit := func(tok string, base, add []int32) {
		start := len(merged.Items)
		for _, id := range base {
			v := remap[id]
			if v < 0 {
				continue
			}
			for len(add) > 0 && add[0] < v {
				merged.Items, add = append(merged.Items, add[0]), add[1:]
			}
			merged.Items = append(merged.Items, v)
		}
		merged.Items = append(merged.Items, add...)
		if len(merged.Items) > start {
			out.Add(tok)
			merged.Off = append(merged.Off, uint32(len(merged.Items)))
		}
	}
	fi := 0
	for ti := range tokens.Len() {
		tok := tokens.At(ti)
		for ; fi < len(addToks) && addToks[fi] < tok; fi++ {
			emit(addToks[fi], nil, added[addToks[fi]])
		}
		var add []int32
		if fi < len(addToks) && addToks[fi] == tok {
			add = added[tok]
			fi++
		}
		emit(tok, postings.At(ti), add)
	}
	for ; fi < len(addToks); fi++ {
		emit(addToks[fi], nil, added[addToks[fi]])
	}
	return out.Table(), merged, nil
}

// namesFit refuses names of total bytes that would overflow a names
// table's uint32 offsets.
func namesFit(total int) error {
	if uint64(total) > math.MaxUint32 {
		return fmt.Errorf("serve: %d bytes of names exceed a names table's 4 GiB", total)
	}
	return nil
}

// orgStats computes a snapshot's statistics from its organization
// table: the sizes are the differences of the member offsets, in
// descending order because the table is in canonical order, and θ is
// the arithmetic of orgfactor.Theta over them.
func orgStats(orgs *snapbin.Orgs, asns int) (Stats, error) {
	off := orgs.Members.Off
	sizes := make([]int, orgs.Len())
	for i := range sizes {
		sizes[i] = int(off[i+1] - off[i])
	}
	theta, err := orgfactor.ThetaFromSizes(sizes, asns)
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Orgs:          len(sizes),
		ASNs:          asns,
		Theta:         theta,
		MultiASOrgs:   multiCount(sizes),
		LargestOrg:    sizes[0],
		SizeHistogram: sizeHistogram(sizes),
	}, nil
}

// multiCount counts entries > 1 in a descending size slice.
func multiCount(sizes []int) int {
	for i, n := range sizes {
		if n <= 1 {
			return i
		}
	}
	return len(sizes)
}

// tokenRune reports whether r belongs in a token of a lowercased
// name: an ASCII letter or digit, or any non-ASCII rune.
func tokenRune(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r >= 0x80
}

// nextToken returns the first token of an already-lowercased string (a
// maximal run of token runes) and what follows it; tok is "" when s
// holds none.
func nextToken(s string) (tok, rest string) {
	start := -1
	for i, r := range s {
		if tokenRune(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			return s[start:i], s[i:]
		}
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}

// isToken reports whether q is made only of token runes, so that every
// name containing q holds it inside one token.
func isToken(q string) bool {
	for _, r := range q {
		if !tokenRune(r) {
			return false
		}
	}
	return true
}

// sizeHistogram buckets descending cluster sizes into power-of-two
// bins.
func sizeHistogram(sizes []int) []SizeBucket {
	counts := make(map[int]int) // bucket index -> org count
	maxBucket := 0
	for _, n := range sizes {
		b := 0
		for lo, hi := 1, 1; ; b, lo, hi = b+1, hi+1, hi*2 {
			if n >= lo && n <= hi {
				break
			}
		}
		counts[b]++
		if b > maxBucket {
			maxBucket = b
		}
	}
	out := make([]SizeBucket, 0, maxBucket+1)
	lo, hi := 1, 1
	for b := 0; b <= maxBucket; b++ {
		out = append(out, SizeBucket{Lo: lo, Hi: hi, Orgs: counts[b]})
		lo, hi = hi+1, hi*2
	}
	return out
}

// Mapping builds a consolidated mapping from the snapshot's tables.
// Each call allocates a fresh cluster slice, one header per
// organization, whose names and members alias the snapshot's tables
// (callers must treat them as read-only), and shares the snapshot's
// index. It serves tools, tests and benchmarks; no serving or swap path
// calls it.
func (s *Snapshot) Mapping() *cluster.Mapping {
	clusters := make([]cluster.Cluster, s.orgs.Len())
	for i := range clusters {
		clusters[i] = s.orgs.At(i)
	}
	return cluster.NewMapping(clusters, s.index)
}

// NumOrgs returns the number of organizations.
func (s *Snapshot) NumOrgs() int { return s.orgs.Len() }

// OrgAt returns organization i, which must be in range. With NumOrgs it
// is the view mapdiff computes a delta over.
func (s *Snapshot) OrgAt(i int) cluster.Cluster { return s.orgs.At(i) }

// Stats returns the snapshot's precomputed statistics.
func (s *Snapshot) Stats() Stats { return s.stats }

// Source returns the label describing where the mapping came from.
func (s *Snapshot) Source() string { return s.source }

// LoadedAt returns when the snapshot was constructed.
func (s *Snapshot) LoadedAt() time.Time { return s.loadedAt }

// Health returns the provenance health the snapshot was built with.
func (s *Snapshot) Health() Health { return s.health }

// LoadMode reports how the snapshot was produced: LoadModeFull,
// LoadModeBinary, or LoadModeDelta.
func (s *Snapshot) LoadMode() string { return s.loadMode }

// ContentHash returns the snapbin content hash of the snapshot's
// logical content (hex SHA-256). Snapshots loaded from a binary
// artifact carry the verified file hash; full builds and delta
// patches compute it on first call — one streaming encode pass,
// memoized for the snapshot's lifetime. Two snapshots hash equal iff
// their serving content (mapping, indexes, stats) is byte-identical,
// which is what a replica fleet compares.
func (s *Snapshot) ContentHash() string {
	s.hashOnce.Do(func() {
		if s.contentHash == "" {
			s.contentHash = snapbin.HashImage(s.image())
		}
	})
	return s.contentHash
}

// Lookup returns the organization containing a, and false when a is
// unmapped. The lookup is a bounded binary search over the snapshot's
// sorted index — no hashing, no allocation; the cluster value's name
// and members alias the snapshot's tables.
func (s *Snapshot) Lookup(a asnum.ASN) (cluster.Cluster, bool) {
	id, ok := s.index.Lookup(a)
	if !ok {
		return cluster.Cluster{}, false
	}
	return s.orgs.At(id), true
}

// Org returns the organization with the given cluster ID, and false
// when there is none.
func (s *Snapshot) Org(id int) (cluster.Cluster, bool) {
	if id < 0 || id >= s.orgs.Len() {
		return cluster.Cluster{}, false
	}
	return s.orgs.At(id), true
}

// OrgBody returns a copy of the /v1/org JSON response for the given
// cluster ID (trailing newline included), or nil when out of range.
// Serving paths use AppendOrgBody instead.
func (s *Snapshot) OrgBody(id int) []byte {
	body, ok := s.AppendOrgBody(nil, id)
	if !ok {
		return nil
	}
	return body
}

// AppendOrgBody appends the /v1/org JSON response for cluster id to dst
// and reports whether id exists. The response is rendered from the
// organization's tables through a cluster value on the stack, so a
// call with spare capacity in dst performs zero allocations.
func (s *Snapshot) AppendOrgBody(dst []byte, id int) ([]byte, bool) {
	c, ok := s.Org(id)
	if !ok {
		return dst, false
	}
	return snapbin.AppendOrg(dst, &c), true
}

// AppendASBody appends the /v1/as JSON response for a to dst and
// reports whether a is mapped. The response is rendered from a's
// organization through a cluster value on the stack, so a call with
// spare capacity in dst performs zero allocations.
func (s *Snapshot) AppendASBody(dst []byte, a asnum.ASN) ([]byte, bool) {
	c, ok := s.Lookup(a)
	if !ok {
		return dst, false
	}
	return snapbin.AppendAS(dst, a, &c), true
}

// searchScratch is the reusable per-query state behind Search and
// SearchBrownout: a cluster-ID dedup bitset plus the matched posting
// lists and a result buffer, recycled through scratchPool so the query
// path performs no steady-state allocation.
type searchScratch struct {
	bits  []uint64
	lists [][]int32
	ids   []int
	// q is a phrase query and lower the name of the candidate it is
	// confirmed against, lowered.
	q, lower []byte
}

func (sc *searchScratch) mark(id int) bool {
	w, b := id>>6, uint64(1)<<(id&63)
	if sc.bits[w]&b != 0 {
		return false
	}
	sc.bits[w] |= b
	return true
}

// scratchPool recycles search scratch across every snapshot. It lives
// outside Snapshot because the runtime lists each pool used since the
// last collection and marks that list once more in the next one: a
// pool inside a snapshot would keep the whole snapshot live through
// the collection a swap starts to free it (see collectRetired).
var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// scratch takes a scratch from the pool, its bitset grown to cover the
// snapshot's organizations. Every bit of a pooled scratch is clear, so
// it serves a snapshot of any size.
func (s *Snapshot) scratch() *searchScratch {
	sc := scratchPool.Get().(*searchScratch)
	if words := (s.orgs.Len() + 63) / 64; len(sc.bits) < words {
		sc.bits = make([]uint64, words)
	}
	return sc
}

// release clears every bit still set for the emitted ids, drops the
// posting lists it points into, and returns the scratch to the pool.
func release(sc *searchScratch) {
	for _, id := range sc.ids {
		sc.bits[id>>6] = 0
	}
	sc.ids = sc.ids[:0]
	clear(sc.lists)
	sc.lists = sc.lists[:0]
	scratchPool.Put(sc)
}

// Search returns up to limit organizations whose display name contains
// the query (case-insensitive), in ascending cluster-ID order, reading
// only the token index and the display names:
//
//   - A query made only of token runes lies inside one token of any
//     name holding it, so it scans the token index and merges the
//     matching sorted posting lists.
//   - A query with no token rune is ASCII punctuation and spaces, which
//     lowering neither makes nor removes: only U+0130 and U+212A lower
//     into ASCII, and both to letters. It is matched against the
//     display names as they are.
//   - Any other query is a phrase. The postings of the tokens that can
//     hold its most selective token run (see phraseLists) are its
//     candidates, each confirmed against its name lowered.
//
// All stop as soon as limit ids are gathered. limit <= 0 means no
// limit.
func (s *Snapshot) Search(query string, limit int) []cluster.Cluster {
	q := strings.ToLower(strings.TrimSpace(query))
	if q == "" {
		return nil
	}
	if limit <= 0 || limit > s.orgs.Len() {
		limit = s.orgs.Len()
	}
	sc := s.scratch()
	switch {
	case isToken(q):
		// Walk the offsets with a running start: an At call per token
		// costs a measurable share of the scan.
		text, start := s.tokens.Text, uint32(0)
		for i, end := range s.tokens.Off[1:] {
			if strings.Contains(text[start:end], q) {
				sc.lists = append(sc.lists, s.postings.At(i))
			}
			start = end
		}
		s.mergePostings(sc, limit, false)
	case strings.IndexFunc(q, tokenRune) < 0:
		text, start := s.orgs.Names.Text, uint32(0)
		for i, end := range s.orgs.Names.Off[1:] {
			if strings.Contains(text[start:end], q) {
				if sc.ids = append(sc.ids, i); len(sc.ids) == limit {
					break
				}
			}
			start = end
		}
	default:
		s.phraseLists(sc, q)
		sc.q = append(sc.q[:0], q...)
		s.mergePostings(sc, limit, true)
	}
	out := s.materialize(sc.ids)
	release(sc)
	return out
}

// phraseLists gathers into sc.lists the posting lists of the tokens
// that can hold the most selective token run of the phrase q. A name
// holding q holds a run with other runes on both sides as a whole
// token, the last run (another rune only before it) at a token's start,
// and the first run (another rune only after it) at a token's end.
// Whole and starting runs resolve by binary search over the sorted
// tokens, and the one whose tokens have the fewest postings wins; only a
// phrase with neither scans the tokens for those ending with its first
// run. A run that no token holds gathers nothing, and the phrase finds
// nothing.
func (s *Snapshot) phraseLists(sc *searchScratch, q string) {
	lo, hi, best := 0, 0, -1 // the winning run's tokens, and their postings
	first := ""
	for tok, rest := nextToken(q); tok != ""; tok, rest = nextToken(rest) {
		if len(tok)+len(rest) == len(q) {
			first = tok
			continue
		}
		l := s.findToken(tok)
		h := l
		if rest == "" {
			h += sort.Search(s.tokens.Len()-l, func(i int) bool { return !strings.HasPrefix(s.tokens.At(l+i), tok) })
		} else if l < s.tokens.Len() && s.tokens.At(l) == tok {
			h++
		}
		if n := int(s.postings.Off[h] - s.postings.Off[l]); best < 0 || n < best {
			lo, hi, best = l, h, n
		}
	}
	if best < 0 {
		text, start := s.tokens.Text, uint32(0)
		for i, end := range s.tokens.Off[1:] {
			if strings.HasSuffix(text[start:end], first) {
				sc.lists = append(sc.lists, s.postings.At(i))
			}
			start = end
		}
		return
	}
	for i := lo; i < hi; i++ {
		sc.lists = append(sc.lists, s.postings.At(i))
	}
}

// mergePostings gathers into sc.ids the smallest limit distinct ids of
// the sorted posting lists in sc.lists, ascending, keeping with confirm
// only those whose lowered name holds the phrase sc.q. A single list is
// already sorted and unique, so it is read in order. Several are marked
// into the bitset, whose set bits are then read in ascending order and
// cleared word by word: the cost is the lists' total length plus the
// words they span, however many lists there are.
func (s *Snapshot) mergePostings(sc *searchScratch, limit int, confirm bool) {
	if len(sc.lists) == 1 {
		for _, id := range sc.lists[0] {
			if len(sc.ids) == limit {
				break
			}
			if !confirm || s.holdsPhrase(sc, int(id)) {
				sc.ids = append(sc.ids, int(id))
			}
		}
		return
	}
	lo, hi := len(sc.bits), 0 // the words marked
	for _, l := range sc.lists {
		if len(l) == 0 {
			continue
		}
		lo, hi = min(lo, int(l[0]>>6)), max(hi, int(l[len(l)-1]>>6)+1)
		for _, id := range l {
			sc.bits[id>>6] |= 1 << (id & 63)
		}
	}
	for w := lo; w < hi; w++ {
		for b := sc.bits[w]; b != 0 && len(sc.ids) < limit; b &= b - 1 {
			if id := w<<6 | bits.TrailingZeros64(b); !confirm || s.holdsPhrase(sc, id) {
				sc.ids = append(sc.ids, id)
			}
		}
		sc.bits[w] = 0
	}
}

// holdsPhrase reports whether organization id's name, lowered into
// sc.lower, contains the phrase sc.q.
func (s *Snapshot) holdsPhrase(sc *searchScratch, id int) bool {
	sc.lower = snapbin.AppendLower(sc.lower[:0], s.orgs.Names.At(id))
	return bytes.Contains(sc.lower, sc.q)
}

// materialize converts cluster ids into cluster values, one
// allocation for the result.
func (s *Snapshot) materialize(ids []int) []cluster.Cluster {
	if len(ids) == 0 {
		return nil
	}
	out := make([]cluster.Cluster, len(ids))
	for i, id := range ids {
		out[i] = s.orgs.At(id)
	}
	return out
}

// findToken returns the position of the first token not below tok.
func (s *Snapshot) findToken(tok string) int {
	return sort.Search(s.tokens.Len(), func(i int) bool { return s.tokens.At(i) >= tok })
}

// SearchBrownout is the degraded-mode variant of Search used under
// admission pressure: instead of ranking the whole token index by
// substring containment (a full scan of the tokens), it binary-searches
// the sorted tokens and walks only those that have the query as a
// prefix, stopping as soon as limit organizations are collected.
// Recall is reduced by design — mid-token matches and queries spanning
// tokens are missed — mirroring how degraded snapshots trade
// completeness for availability. limit must be > 0.
func (s *Snapshot) SearchBrownout(query string, limit int) []cluster.Cluster {
	if limit <= 0 {
		return nil
	}
	// A query of several tokens degrades to its first token's prefix
	// scan.
	q, _ := nextToken(strings.ToLower(strings.TrimSpace(query)))
	if q == "" {
		return nil
	}
	sc := s.scratch()
	for i := s.findToken(q); i < s.tokens.Len(); i++ {
		if !strings.HasPrefix(s.tokens.At(i), q) {
			break
		}
		for _, id := range s.postings.At(i) {
			if sc.mark(int(id)) {
				sc.ids = append(sc.ids, int(id))
			}
		}
		if len(sc.ids) >= limit {
			break
		}
	}
	ids := sc.ids
	if len(ids) > limit {
		ids = ids[:limit]
	}
	sort.Ints(ids)
	out := s.materialize(ids)
	release(sc)
	return out
}
