package cluster

import (
	"fmt"
	"runtime"
	"slices"

	"github.com/nu-aqualab/borges/internal/asnum"
)

// Feature identifies which Borges inference feature produced a sibling
// set. The names follow Table 3 / Table 6 of the paper.
type Feature uint8

const (
	// FeatureOIDW groups ASNs sharing a WHOIS organization ID (AS2Org).
	FeatureOIDW Feature = iota
	// FeatureOIDP groups ASNs sharing a PeeringDB organization ID.
	FeatureOIDP
	// FeatureNotesAka groups ASNs extracted from notes/aka text by the
	// LLM-based NER module (§4.2).
	FeatureNotesAka
	// FeatureRR groups ASNs whose websites lead (directly or through
	// refreshes and redirects) to the same final URL (§4.3.2).
	FeatureRR
	// FeatureFavicon groups ASNs whose websites share favicons and
	// brand-consistent domains (§4.3.3).
	FeatureFavicon

	numFeatures = iota
)

// NumFeatures is the number of distinct inference features.
const NumFeatures = int(numFeatures)

// String implements fmt.Stringer using the paper's shorthand.
func (f Feature) String() string {
	switch f {
	case FeatureOIDW:
		return "OID_W"
	case FeatureOIDP:
		return "OID_P"
	case FeatureNotesAka:
		return "N&A"
	case FeatureRR:
		return "R&R"
	case FeatureFavicon:
		return "F"
	default:
		return fmt.Sprintf("Feature(%d)", uint8(f))
	}
}

// SiblingSet is one inferred group of ASNs under common administration,
// with the feature that produced it and a short human-readable evidence
// string (an org ID, a final URL, a favicon hash, …).
type SiblingSet struct {
	ASNs     []asnum.ASN
	Source   Feature
	Evidence string
}

// Cluster is one organization in a consolidated mapping.
type Cluster struct {
	// ID is the cluster's index in Mapping.Clusters (stable for a given
	// mapping, not across mappings).
	ID int
	// Name is a display name chosen by the builder's namer (may be "").
	Name string
	// ASNs are the member networks, sorted ascending.
	ASNs []asnum.ASN
	// Features records which features contributed at least one edge
	// inside this cluster.
	Features [NumFeatures]bool
}

// Size returns the number of member networks.
func (c *Cluster) Size() int { return len(c.ASNs) }

// Mapping is a consolidated AS-to-Organization mapping: a partition of a
// network universe into organizations.
//
// Point lookups run against the packed sorted-slice Index instead of a
// hash map, so ClusterOf is a bounded binary search.
type Mapping struct {
	Clusters []Cluster

	index Index
	// sizes caches the cluster sizes in descending order. Clusters are
	// materialized largest-first, so this is simply the member count per
	// cluster in cluster order, computed once at build time.
	sizes []int
}

// NewMapping assembles a mapping from clusters in canonical order
// (cluster i has ID i) and an index already verified against them, as
// Restore verifies one. It copies neither.
func NewMapping(clusters []Cluster, idx Index) *Mapping {
	m := &Mapping{Clusters: clusters, index: idx, sizes: make([]int, len(clusters))}
	for i := range clusters {
		m.sizes[i] = len(clusters[i].ASNs)
	}
	return m
}

// NumOrgs returns the number of organizations.
func (m *Mapping) NumOrgs() int { return len(m.Clusters) }

// OrgAt returns organization i. With NumOrgs it is the read-only view
// of a mapping that mapdiff computes deltas over.
func (m *Mapping) OrgAt(i int) Cluster { return m.Clusters[i] }

// NumASNs returns the number of networks covered.
func (m *Mapping) NumASNs() int { return m.index.Len() }

// Index returns the mapping's packed lookup index.
func (m *Mapping) Index() Index { return m.index }

// ClusterOf returns the cluster containing a, or nil if a is unmapped.
func (m *Mapping) ClusterOf(a asnum.ASN) *Cluster {
	id, ok := m.index.Lookup(a)
	if !ok {
		return nil
	}
	return &m.Clusters[id]
}

// Siblings returns the sorted sibling ASNs of a (including a itself), or
// nil if a is unmapped.
func (m *Mapping) Siblings(a asnum.ASN) []asnum.ASN {
	c := m.ClusterOf(a)
	if c == nil {
		return nil
	}
	return c.ASNs
}

// Sizes returns the cluster sizes in descending order. The slice is
// computed once at build time and shared across calls; callers must
// treat it as read-only.
func (m *Mapping) Sizes() []int {
	if m.sizes == nil && len(m.Clusters) > 0 {
		// Mappings assembled by hand (tests) rather than through Build:
		// fall back to a one-off computation.
		sizes := make([]int, len(m.Clusters))
		for i := range m.Clusters {
			sizes[i] = len(m.Clusters[i].ASNs)
		}
		slices.SortFunc(sizes, func(a, b int) int { return b - a })
		m.sizes = sizes
	}
	return m.sizes
}

// Namer chooses a display name for a cluster given its members. It may
// return "" when no name is known.
type Namer func(members []asnum.ASN) string

// Builder accumulates sibling sets and consolidates them into a Mapping.
// Consolidation is deferred: Add only records sets, and Build (or
// BuildSharded) replays them through a union-find, so repeated builds
// and the sharded strategy see the same inputs.
type Builder struct {
	universe   []asnum.ASN
	inUniverse map[asnum.ASN]bool
	sets       []SiblingSet
	// spill, when non-nil, redirects Add to shard files on disk; see
	// SpillToDisk in spill.go.
	spill *spillState
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{inUniverse: make(map[asnum.ASN]bool)}
}

// AddUniverse declares ASNs that must appear in the final mapping even if
// no sibling set mentions them (they become singletons). The paper's θ
// computation uses "all networks appearing in the WHOIS records" as the
// universe (§5.4).
func (b *Builder) AddUniverse(asns ...asnum.ASN) {
	for _, a := range asns {
		if !b.inUniverse[a] {
			b.inUniverse[a] = true
			b.universe = append(b.universe, a)
		}
	}
}

// Add records one sibling set. Sets with fewer than one ASN are ignored;
// singleton sets still register the ASN in the mapping.
func (b *Builder) Add(s SiblingSet) {
	if len(s.ASNs) == 0 {
		return
	}
	if b.spill != nil {
		b.spill.add(s)
		return
	}
	b.sets = append(b.sets, s)
}

// AddAll records many sibling sets.
func (b *Builder) AddAll(sets []SiblingSet) {
	for _, s := range sets {
		b.Add(s)
	}
}

// Build consolidates everything added so far into a Mapping with the
// sequential union-find. The namer, if non-nil, assigns display names.
// Build may be called repeatedly; each call reflects the current state.
func (b *Builder) Build(namer Namer) *Mapping {
	if b.spill != nil {
		// The sets live on disk; consolidate through the spill reader.
		// Build stays error-free for API compatibility — spill I/O
		// errors are observable via BuildShardedChecked.
		m, _ := b.BuildShardedChecked(namer, 1)
		return m
	}
	uf := NewUnionFind()
	for _, a := range b.universe {
		uf.Add(a)
	}
	for _, s := range b.sets {
		uf.UnionAll(s.ASNs)
	}
	return b.materialize(uf.Components(), namer)
}

// BuildSharded consolidates with the sharded strategy: sibling sets are
// partitioned across workers (GOMAXPROCS when workers <= 0), each shard
// runs a local dense union-find, and the per-shard frontiers merge into
// a global structure. The result is identical to Build's — same cluster
// IDs, same WriteJSONL bytes — a property the shard_test suite asserts
// over random inputs.
func (b *Builder) BuildSharded(namer Namer, workers int) *Mapping {
	m, _ := b.BuildShardedChecked(namer, workers)
	return m
}

// BuildShardedChecked is BuildSharded with an error return: in
// spill-to-disk mode (SpillToDisk) a sticky spill write error or a
// shard-file read error surfaces here instead of being swallowed. The
// in-memory path never errors. The result is byte-identical across
// modes, shard sizes, and worker counts.
func (b *Builder) BuildShardedChecked(namer Namer, workers int) (*Mapping, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if b.spill != nil {
		comps, err := b.spilledComponents(workers)
		if err != nil {
			return nil, err
		}
		return b.materialize(comps, namer), nil
	}
	return b.materialize(shardedComponents(b.sets, b.universe, workers), namer), nil
}

// materialize turns deterministic components into a Mapping: clusters,
// the sorted two-level ASN index, the cached size slice, feature
// provenance replay, and interned display names.
func (b *Builder) materialize(comps [][]asnum.ASN, namer Namer) *Mapping {
	m := &Mapping{Clusters: make([]Cluster, len(comps))}
	total := 0
	for _, members := range comps {
		total += len(members)
	}
	m.sizes = make([]int, len(comps))
	// Pack (ASN, cluster) pairs into uint64s so one flat slices.Sort
	// produces the ASN-ordered index without a comparison callback.
	packed := make([]uint64, 0, total)
	for i, members := range comps {
		m.Clusters[i] = Cluster{ID: i, ASNs: members}
		m.sizes[i] = len(members)
		for _, a := range members {
			packed = append(packed, uint64(a)<<32|uint64(uint32(i)))
		}
	}
	slices.Sort(packed)
	keys := make([]asnum.ASN, len(packed))
	vals := make([]int32, len(packed))
	for i, p := range packed {
		keys[i] = asnum.ASN(p >> 32)
		vals[i] = int32(uint32(p))
	}
	m.index = newIndex(keys, vals)
	// Replay feature provenance through the finished index: every set
	// member landed in exactly one cluster, so the set's first ASN
	// locates it. In spill mode the members are on disk, but the
	// retained (first, source) residue is all this pass needs.
	b.forEachProv(func(first asnum.ASN, src Feature) {
		if id, ok := m.index.Lookup(first); ok {
			m.Clusters[id].Features[src] = true
		}
	})
	if namer != nil {
		// Intern display names: namers commonly re-derive the same
		// string for many clusters (shared WHOIS org names), and the
		// serving layer holds every name for the lifetime of a snapshot.
		interned := make(map[string]string)
		for i := range m.Clusters {
			name := namer(m.Clusters[i].ASNs)
			if name == "" {
				continue
			}
			if prev, ok := interned[name]; ok {
				name = prev
			} else {
				interned[name] = name
			}
			m.Clusters[i].Name = name
		}
	}
	return m
}

// forEachProv yields the (first member, source feature) residue of every
// recorded set, whether the members live in memory or in spill shards.
func (b *Builder) forEachProv(f func(first asnum.ASN, src Feature)) {
	if b.spill != nil {
		for _, p := range b.spill.prov {
			f(p.first, p.src)
		}
		return
	}
	for _, s := range b.sets {
		f(s.ASNs[0], s.Source)
	}
}

// Universe returns the declared universe size.
func (b *Builder) Universe() int { return len(b.universe) }
