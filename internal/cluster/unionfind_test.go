package cluster

import (
	"github.com/nu-aqualab/borges/internal/asnum"
)

// UnionFind is a disjoint-set forest over ASNs with union by size and
// path halving, keyed by maps. It is the test oracle of the Builder's
// dense union-find: oracleBuild consolidates with it, and
// TestBuilderMatchesOracle compares the two. The zero value is not
// usable; call NewUnionFind.
type UnionFind struct {
	parent map[asnum.ASN]asnum.ASN
	size   map[asnum.ASN]int
	sets   int
}

// NewUnionFind returns an empty disjoint-set forest.
func NewUnionFind() *UnionFind {
	return &UnionFind{
		parent: make(map[asnum.ASN]asnum.ASN),
		size:   make(map[asnum.ASN]int),
	}
}

// Add inserts a as a singleton set if not already present.
func (u *UnionFind) Add(a asnum.ASN) {
	if _, ok := u.parent[a]; ok {
		return
	}
	u.parent[a] = a
	u.size[a] = 1
	u.sets++
}

// Contains reports whether a has been added.
func (u *UnionFind) Contains(a asnum.ASN) bool {
	_, ok := u.parent[a]
	return ok
}

// Find returns the canonical representative of a's set, adding a as a
// singleton if it was not present.
func (u *UnionFind) Find(a asnum.ASN) asnum.ASN {
	u.Add(a)
	for u.parent[a] != a {
		u.parent[a] = u.parent[u.parent[a]] // path halving
		a = u.parent[a]
	}
	return a
}

// Union merges the sets containing a and b and returns the representative
// of the merged set.
func (u *UnionFind) Union(a, b asnum.ASN) asnum.ASN {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return ra
	}
	// Union by size; tie-break on the smaller ASN for determinism.
	if u.size[ra] < u.size[rb] || (u.size[ra] == u.size[rb] && rb < ra) {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	u.sets--
	return ra
}

// UnionAll merges every ASN in the slice into one set.
func (u *UnionFind) UnionAll(asns []asnum.ASN) {
	if len(asns) == 0 {
		return
	}
	first := asns[0]
	u.Add(first)
	for _, a := range asns[1:] {
		u.Union(first, a)
	}
}

// Same reports whether a and b are in the same set. Both are added if
// absent.
func (u *UnionFind) Same(a, b asnum.ASN) bool { return u.Find(a) == u.Find(b) }

// Len returns the number of elements added.
func (u *UnionFind) Len() int { return len(u.parent) }

// Sets returns the current number of disjoint sets.
func (u *UnionFind) Sets() int { return u.sets }

// SizeOf returns the size of the set containing a (0 if absent).
func (u *UnionFind) SizeOf(a asnum.ASN) int {
	if !u.Contains(a) {
		return 0
	}
	return u.size[u.Find(a)]
}

// Components returns every disjoint set as a sorted slice of ASNs. The
// outer slice is ordered by descending size, ties broken by the smallest
// member ASN, so output is deterministic.
func (u *UnionFind) Components() [][]asnum.ASN {
	groups := make(map[asnum.ASN][]asnum.ASN, u.sets)
	for a := range u.parent {
		r := u.Find(a)
		groups[r] = append(groups[r], a)
	}
	out := make([][]asnum.ASN, 0, len(groups))
	for _, members := range groups {
		out = append(out, members)
	}
	sortComponents(out, 1)
	return out
}
