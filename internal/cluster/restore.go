package cluster

import (
	"fmt"

	"github.com/nu-aqualab/borges/internal/asnum"
)

// Restore verifies a packed index against organizations held as one
// member pool and its offsets — organization i, whose ID is i, has the
// members pool[off[i]:off[i+1]] — and returns the index ready for
// lookups. It is the one check of every organization table that did
// not come from Build: a binary snapshot's, which arrives from disk or
// the network, and a delta patch's. Nothing is re-sorted and nothing
// is replayed.
//
// Restore trusts nothing: no organization may be empty, organizations
// must be in the canonical order Build produces (descending size, ties
// by smallest member), keys must strictly ascend, and the index must
// correspond exactly to membership. The last is one merged cursor walk
// — O(total ASNs), no hashing — so a restored index can never answer a
// lookup the member table disagrees with.
func Restore(pool []asnum.ASN, off []uint32, keys []asnum.ASN, vals []int32) (Index, error) {
	if len(keys) != len(vals) {
		return Index{}, fmt.Errorf("cluster: restore: %d keys but %d vals", len(keys), len(vals))
	}
	if len(off) == 0 || off[0] != 0 || int(off[len(off)-1]) != len(pool) {
		return Index{}, fmt.Errorf("cluster: restore: member offsets do not span the %d-member pool", len(pool))
	}
	n := len(off) - 1
	for i := 0; i < n; i++ {
		if off[i+1] <= off[i] {
			return Index{}, fmt.Errorf("cluster: restore: cluster %d has no members", i)
		}
		if i > 0 && CompareCanonical(pool[off[i-1]:off[i]], pool[off[i]:off[i+1]]) >= 0 {
			return Index{}, fmt.Errorf("cluster: restore: clusters %d,%d violate canonical order", i-1, i)
		}
	}
	if len(pool) != len(keys) {
		return Index{}, fmt.Errorf("cluster: restore: clusters hold %d members but index has %d keys", len(pool), len(keys))
	}
	// Cursor walk: keys ascend strictly, and because each cluster's
	// member list is itself ascending, visiting keys in order must
	// consume every cluster's members in order. Any mismatch — wrong
	// owner, missing member, unsorted list — surfaces here. A cursor
	// starts at its cluster's first pool position.
	cursors := make([]uint32, n)
	copy(cursors, off)
	for i, a := range keys {
		if i > 0 && keys[i-1] >= a {
			return Index{}, fmt.Errorf("cluster: restore: index keys not strictly ascending at %d", i)
		}
		v := vals[i]
		if v < 0 || int(v) >= n {
			return Index{}, fmt.Errorf("cluster: restore: index val %d out of range at %d", v, i)
		}
		cur := cursors[v]
		if cur >= off[v+1] || pool[cur] != a {
			return Index{}, fmt.Errorf("cluster: restore: index disagrees with cluster %d membership at key %s", v, a)
		}
		cursors[v] = cur + 1
	}
	return newIndex(keys, vals), nil
}

// CompareCanonical orders two member lists the way Build orders
// clusters: descending size, ties broken by the smallest member ASN.
// Both lists must be sorted ascending and non-empty. The order is a
// pure function of membership, which is what lets an incremental
// delta patch reproduce the exact cluster IDs a from-scratch build
// would assign.
func CompareCanonical(a, b []asnum.ASN) int {
	if len(a) != len(b) {
		return len(b) - len(a)
	}
	switch {
	case a[0] < b[0]:
		return -1
	case a[0] > b[0]:
		return 1
	}
	return 0
}
