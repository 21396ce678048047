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
// Snapshot construction fans out across GOMAXPROCS workers: each takes
// a contiguous cluster range and produces its lowercase names and token
// postings, while θ and the size histogram compute concurrently from
// the mapping's cached size slice. /v1/org and /v1/as responses are
// rendered from the clusters per request (snapbin.AppendOrg and
// snapbin.AppendAS), so a snapshot stores no response bytes.
// Contiguous ranges keep per-token posting lists ascending when merged
// in worker order, so the parallel build is deterministic and
// bit-identical to a single-worker build.
package serve

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/orgfactor"
	"github.com/nu-aqualab/borges/internal/snapbin"
)

// SizeBucket is one bar of a snapshot's organization-size histogram.
// Buckets are powers of two: [1,1], [2,2], [3,4], [5,8], [9,16], …
type SizeBucket struct {
	// Lo and Hi bound the member counts falling in this bucket
	// (inclusive).
	Lo, Hi int
	// Orgs is the number of organizations of that size.
	Orgs int
}

// Label renders the bucket bounds ("1", "2", "3-4", …).
func (b SizeBucket) Label() string {
	if b.Lo == b.Hi {
		return fmt.Sprintf("%d", b.Lo)
	}
	return fmt.Sprintf("%d-%d", b.Lo, b.Hi)
}

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
	mapping *cluster.Mapping
	stats   Stats

	// tokens holds every lowercase name token, sorted, for
	// deterministic substring scans and prefix binary searches;
	// postings.At(i) lists, ascending, the cluster IDs whose display
	// name contains token i. lowerNames.At(i) is the lowercase display
	// name of cluster i, for queries that are not one token. All three
	// are flat tables in the token section's own layout: a binary load
	// adopts them without conversion, and they cost six heap objects
	// however many organizations the snapshot holds.
	tokens     snapbin.Strings
	postings   snapbin.Postings
	lowerNames snapbin.Strings

	// scratchPool recycles per-query search state (dedup bitset, posting
	// heads, result ids) so Search and SearchBrownout stay off the heap.
	scratchPool sync.Pool

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
	return newSnapshotWorkers(m, source, health, now, runtime.GOMAXPROCS(0))
}

// indexShard is one worker's slice of the snapshot index build.
type indexShard struct {
	tokens map[string][]int32
}

// newSnapshotWorkers builds a snapshot with an explicit worker count
// (tests pin it; callers go through NewSnapshot or Options.BuildWorkers).
func newSnapshotWorkers(m *cluster.Mapping, source string, health Health, now time.Time, workers int) (*Snapshot, error) {
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
	n := len(m.Clusters)
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	lower := make([]string, n)
	s := &Snapshot{
		mapping:  m,
		source:   source,
		loadedAt: now,
		health:   health,
		loadMode: LoadModeFull,
	}
	s.scratchPool.New = func() any {
		return &searchScratch{bits: make([]uint64, (n+63)/64)}
	}

	// θ and the histogram run concurrently with the index workers; both
	// consume the mapping's cached descending size slice.
	var (
		theta    float64
		thetaErr error
		statsWG  sync.WaitGroup
	)
	statsWG.Add(1)
	stats := func() {
		defer statsWG.Done()
		theta, thetaErr = orgfactor.Theta(m)
		if thetaErr != nil {
			return
		}
		sizes := m.Sizes()
		s.stats = Stats{
			Orgs:          m.NumOrgs(),
			ASNs:          m.NumASNs(),
			MultiASOrgs:   multiCount(sizes),
			LargestOrg:    sizes[0],
			SizeHistogram: sizeHistogram(sizes),
		}
	}

	shards := make([]indexShard, workers)
	chunk := (n + workers - 1) / workers
	if workers == 1 {
		stats()
		s.buildRange(&shards[0], lower, 0, n)
	} else {
		go stats()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, n)
			if lo >= hi {
				shards[w].tokens = map[string][]int32{}
				continue
			}
			wg.Add(1)
			go func(sh *indexShard, lo, hi int) {
				defer wg.Done()
				s.buildRange(sh, lower, lo, hi)
			}(&shards[w], lo, hi)
		}
		wg.Wait()
	}
	statsWG.Wait()
	if thetaErr != nil {
		return nil, fmt.Errorf("serve: mapping fails θ validation: %w", thetaErr)
	}
	s.stats.Theta = theta

	// Merge per-worker token maps in worker order: ranges are contiguous
	// and ascending, so concatenation keeps every posting list sorted —
	// the same lists a sequential scan would build.
	merged := shards[0].tokens
	for w := 1; w < len(shards); w++ {
		for tok, ids := range shards[w].tokens {
			merged[tok] = append(merged[tok], ids...)
		}
	}
	// Pair each token with its postings so that packing walks them in
	// order without a map lookup per token.
	type posting struct {
		tok string
		ids []int32
	}
	toks := make([]posting, 0, len(merged))
	tokBytes, ids := 0, 0
	for tok, l := range merged {
		toks = append(toks, posting{tok, l})
		tokBytes += len(tok)
		ids += len(l)
	}
	slices.SortFunc(toks, func(a, b posting) int { return strings.Compare(a.tok, b.tok) })

	// Pack the names, tokens and postings into exact-size flat tables,
	// the layout a binary load and a delta patch produce. There are
	// never more tokens' bytes or posting entries than names' bytes, so
	// the names' check keeps every uint32 offset in range.
	var names, tokens snapbin.StringsBuilder
	nameBytes := 0
	for _, name := range lower {
		nameBytes += len(name)
	}
	if err := growNames(&names, n, nameBytes); err != nil {
		return nil, err
	}
	for _, name := range lower {
		names.Add(name)
	}
	tokens.Grow(len(toks), tokBytes)
	s.postings = snapbin.Postings{IDs: make([]int32, 0, ids), Off: make([]uint32, 1, len(toks)+1)}
	for _, t := range toks {
		tokens.Add(t.tok)
		s.postings.Append(t.ids...)
	}
	s.lowerNames, s.tokens = names.Table(), tokens.Table()
	return s, nil
}

// growNames sizes a names table for n names of total bytes, refusing
// names that overflow the table's uint32 offsets.
func growNames(b *snapbin.StringsBuilder, n, total int) error {
	if uint64(total) > math.MaxUint32 {
		return fmt.Errorf("serve: %d bytes of names exceed the search index's 4 GiB", total)
	}
	b.Grow(n, total)
	return nil
}

// buildRange indexes clusters [lo, hi): lowercase names and token
// postings. Workers write disjoint index ranges of lower.
func (s *Snapshot) buildRange(sh *indexShard, lower []string, lo, hi int) {
	sh.tokens = make(map[string][]int32, (hi-lo)/2+1)
	for i := lo; i < hi; i++ {
		lower[i] = strings.ToLower(s.mapping.Clusters[i].Name)
		for _, tok := range tokenize(lower[i]) {
			ids := sh.tokens[tok]
			if len(ids) == 0 || ids[len(ids)-1] != int32(i) {
				sh.tokens[tok] = append(ids, int32(i))
			}
		}
	}
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

// tokenize splits an already-lowercased name into indexable tokens.
func tokenize(lower string) []string {
	var out []string
	for tok, rest := nextToken(lower); tok != ""; tok, rest = nextToken(rest) {
		out = append(out, tok)
	}
	return out
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

// Mapping returns the underlying consolidated mapping. Callers must
// treat it as read-only.
func (s *Snapshot) Mapping() *cluster.Mapping { return s.mapping }

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

// Lookup returns the organization containing a, or nil when a is
// unmapped. The lookup is a bounded binary search over the mapping's
// sorted index — no hashing, no allocation.
func (s *Snapshot) Lookup(a asnum.ASN) *cluster.Cluster { return s.mapping.ClusterOf(a) }

// Org returns the organization with the given cluster ID, or nil.
func (s *Snapshot) Org(id int) *cluster.Cluster {
	if id < 0 || id >= len(s.mapping.Clusters) {
		return nil
	}
	return &s.mapping.Clusters[id]
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
// cluster, so a call with spare capacity in dst performs zero
// allocations.
func (s *Snapshot) AppendOrgBody(dst []byte, id int) ([]byte, bool) {
	c := s.Org(id)
	if c == nil {
		return dst, false
	}
	return snapbin.AppendOrg(dst, c), true
}

// AppendASBody appends the /v1/as JSON response for a to dst and
// reports whether a is mapped. The response is rendered from a's
// organization, so a call with spare capacity in dst performs zero
// allocations.
func (s *Snapshot) AppendASBody(dst []byte, a asnum.ASN) ([]byte, bool) {
	c := s.mapping.ClusterOf(a)
	if c == nil {
		return dst, false
	}
	return snapbin.AppendAS(dst, a, c), true
}

// searchScratch is the reusable per-query state behind Search and
// SearchBrownout: a cluster-ID dedup bitset plus the matched posting
// lists and a result buffer, recycled through the snapshot's pool so
// the query path performs no steady-state allocation.
type searchScratch struct {
	bits  []uint64
	lists [][]int32
	ids   []int
}

func (sc *searchScratch) mark(id int) bool {
	w, b := id>>6, uint64(1)<<(id&63)
	if sc.bits[w]&b != 0 {
		return false
	}
	sc.bits[w] |= b
	return true
}

// release clears every bit still set for the emitted ids and returns
// the scratch to the pool.
func (s *Snapshot) release(sc *searchScratch) {
	for _, id := range sc.ids {
		sc.bits[id>>6] = 0
	}
	sc.ids = sc.ids[:0]
	sc.lists = sc.lists[:0]
	s.scratchPool.Put(sc)
}

// Search returns up to limit organizations whose display name contains
// the query (case-insensitive), in ascending cluster-ID order. A query
// made only of token runes lies inside one token of any name holding
// it, so it scans the token index and merges the matching sorted
// posting lists; any other query (spaces, punctuation) can span tokens
// and is matched against whole lowercase names. Both stop as soon as
// limit ids are gathered. limit <= 0 means no limit.
func (s *Snapshot) Search(query string, limit int) []*cluster.Cluster {
	q := strings.ToLower(strings.TrimSpace(query))
	if q == "" {
		return nil
	}
	if limit <= 0 || limit > len(s.mapping.Clusters) {
		limit = len(s.mapping.Clusters)
	}
	sc := s.scratchPool.Get().(*searchScratch)
	if isToken(q) {
		// Walk the offsets with a running start: an At call per token
		// costs a measurable share of the scan.
		text, start := s.tokens.Text, uint32(0)
		for i, end := range s.tokens.Off[1:] {
			if strings.Contains(text[start:end], q) {
				sc.lists = append(sc.lists, s.postings.At(i))
			}
			start = end
		}
		s.mergePostings(sc, limit)
	} else {
		text, start := s.lowerNames.Text, uint32(0)
		for i, end := range s.lowerNames.Off[1:] {
			if strings.Contains(text[start:end], q) {
				if sc.ids = append(sc.ids, i); len(sc.ids) == limit {
					break
				}
			}
			start = end
		}
	}
	out := s.materialize(sc.ids)
	s.release(sc)
	return out
}

// mergePostings gathers into sc.ids the smallest limit distinct ids of
// the sorted posting lists in sc.lists, ascending. A single list is
// already sorted and unique, so its prefix is the answer. Several are
// marked into the bitset, whose set bits are then read in ascending
// order and cleared word by word: the cost is the lists' total length
// plus the words they span, however many lists there are.
func (s *Snapshot) mergePostings(sc *searchScratch, limit int) {
	if len(sc.lists) == 1 {
		ids := sc.lists[0]
		if len(ids) > limit {
			ids = ids[:limit]
		}
		for _, id := range ids {
			sc.ids = append(sc.ids, int(id))
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
			sc.ids = append(sc.ids, w<<6|bits.TrailingZeros64(b))
		}
		sc.bits[w] = 0
	}
}

// materialize converts cluster ids into cluster pointers.
func (s *Snapshot) materialize(ids []int) []*cluster.Cluster {
	if len(ids) == 0 {
		return nil
	}
	out := make([]*cluster.Cluster, len(ids))
	for i, id := range ids {
		out[i] = &s.mapping.Clusters[id]
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
func (s *Snapshot) SearchBrownout(query string, limit int) []*cluster.Cluster {
	if limit <= 0 {
		return nil
	}
	// A query of several tokens degrades to its first token's prefix
	// scan.
	q, _ := nextToken(strings.ToLower(strings.TrimSpace(query)))
	if q == "" {
		return nil
	}
	sc := s.scratchPool.Get().(*searchScratch)
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
	s.release(sc)
	return out
}
