package cluster

import (
	"runtime"
	"slices"
	"sync"

	"github.com/nu-aqualab/borges/internal/asnum"
)

// Builder consolidates sibling sets into a Mapping as they arrive. It
// holds one dense union-find: an ASN → element dictionary, int32
// parent and size arrays, and one feature byte per element. Add merges
// a set into it at once and keeps no set, so the builder's memory
// follows the networks it has seen, not the sets it was given.
//
// Build may be called repeatedly, and Add may follow a Build: each
// Build reflects every set added so far. The partition does not depend
// on the order the sets arrive in, and Build derives the canonical
// order, the IDs, the features and the names from the partition alone,
// so any arrival order gives the same mapping.
type Builder struct {
	index map[asnum.ASN]int32
	elems []asnum.ASN
	dsu   denseDSU
	// feats[i] has bit f set when a set of feature f had elems[i] as
	// its first member. Every member of a set lands in one cluster, so
	// the first member is enough to credit the set's feature.
	feats []uint8
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[asnum.ASN]int32)}
}

// AddUniverse declares ASNs that must appear in the final mapping even if
// no sibling set mentions them (they become singletons). The paper's θ
// computation uses "all networks appearing in the WHOIS records" as the
// universe (§5.4).
func (b *Builder) AddUniverse(asns ...asnum.ASN) {
	if len(b.elems) == 0 && len(asns) > 1 {
		// Size the dictionary and arrays for the universe up front
		// instead of growing them one network at a time.
		b.index = make(map[asnum.ASN]int32, len(asns))
		b.elems = slices.Grow(b.elems, len(asns))
		b.feats = slices.Grow(b.feats, len(asns))
		b.dsu.parent = slices.Grow(b.dsu.parent, len(asns))
		b.dsu.size = slices.Grow(b.dsu.size, len(asns))
	}
	for _, a := range asns {
		b.id(a)
	}
}

// Add merges one sibling set: every member joins its first member's
// cluster. An empty set is ignored; a singleton still registers its
// ASN in the mapping.
func (b *Builder) Add(s SiblingSet) {
	if len(s.ASNs) == 0 {
		return
	}
	first := b.id(s.ASNs[0])
	b.feats[first] |= 1 << s.Source
	for _, a := range s.ASNs[1:] {
		b.dsu.union(first, b.id(a))
	}
}

// AddAll merges many sibling sets.
func (b *Builder) AddAll(sets []SiblingSet) {
	for _, s := range sets {
		b.Add(s)
	}
}

// Build turns everything added so far into a Mapping. The namer, if
// non-nil, assigns display names.
func (b *Builder) Build(namer Namer) *Mapping {
	m := materialize(b.denseComponents(), namer)
	for i, f := range b.feats {
		if f == 0 {
			continue
		}
		id, _ := m.index.Lookup(b.elems[i])
		c := &m.Clusters[id]
		for src := range c.Features {
			if f&(1<<src) != 0 {
				c.Features[src] = true
			}
		}
	}
	return m
}

// BuildShardedChecked returns Build(namer) and a nil error.
//
// Deprecated: use Build; workers is ignored.
func (b *Builder) BuildShardedChecked(namer Namer, workers int) (*Mapping, error) {
	return b.Build(namer), nil
}

// id returns a's element, registering a as a singleton first if the
// builder has not seen it.
func (b *Builder) id(a asnum.ASN) int32 {
	if i, ok := b.index[a]; ok {
		return i
	}
	i := b.dsu.grow()
	b.index[a] = i
	b.elems = append(b.elems, a)
	b.feats = append(b.feats, 0)
	return i
}

// denseDSU is a union-find over dense int32 indexes with path halving
// and union by size. Elements are registered once in the builder's
// dictionary, and every later find or union is array arithmetic.
type denseDSU struct {
	parent []int32
	size   []int32
}

func (d *denseDSU) grow() int32 {
	id := int32(len(d.parent))
	d.parent = append(d.parent, id)
	d.size = append(d.size, 1)
	return id
}

func (d *denseDSU) find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = d.parent[x]
	}
	return x
}

func (d *denseDSU) union(a, b int32) {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
}

// denseComponents groups the builder's elements by root and orders the
// result canonically (sortComponents). A counting sort by root carves
// one backing array into per-component windows.
func (b *Builder) denseComponents() [][]asnum.ASN {
	n := len(b.elems)
	if n == 0 {
		return nil
	}
	roots := make([]int32, n)
	// starts[r+1] first counts root r's members, then becomes the end
	// of its window.
	starts := make([]int32, n+1)
	for i := range roots {
		r := b.dsu.find(int32(i))
		roots[i] = r
		starts[r+1]++
	}
	numComps := 0
	for r := 0; r < n; r++ {
		if starts[r+1] > 0 {
			numComps++
		}
		starts[r+1] += starts[r]
	}
	backing := make([]asnum.ASN, n)
	fill := slices.Clone(starts[:n])
	for i, r := range roots {
		backing[fill[r]] = b.elems[i]
		fill[r]++
	}
	out := make([][]asnum.ASN, 0, numComps)
	for r := 0; r < n; r++ {
		if lo, hi := starts[r], starts[r+1]; hi > lo {
			out = append(out, backing[lo:hi:hi])
		}
	}
	sortComponents(out, runtime.GOMAXPROCS(0))
	return out
}

// sortComponents establishes the canonical component order: members
// ascending within each component, components by descending size with
// ties broken by the smallest member. Member sorts fan out across
// workers; the outer sort is a single pass over (size, first-member)
// keys.
func sortComponents(comps [][]asnum.ASN, workers int) {
	if workers > 1 && len(comps) >= 2*workers {
		var wg sync.WaitGroup
		chunk := (len(comps) + workers - 1) / workers
		for lo := 0; lo < len(comps); lo += chunk {
			hi := min(lo+chunk, len(comps))
			wg.Add(1)
			go func(part [][]asnum.ASN) {
				defer wg.Done()
				for _, members := range part {
					asnum.Sort(members)
				}
			}(comps[lo:hi])
		}
		wg.Wait()
	} else {
		for _, members := range comps {
			asnum.Sort(members)
		}
	}
	slices.SortFunc(comps, CompareCanonical)
}
