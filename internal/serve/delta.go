package serve

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/mapdiff"
	"github.com/nu-aqualab/borges/internal/orgfactor"
	"github.com/nu-aqualab/borges/internal/snapbin"
)

// ErrDeltaMismatch marks a delta whose removals do not describe the
// serving snapshot — it was computed against a different base. The
// reload path surfaces this distinctly so an operator retries with a
// full snapshot instead of a corrected delta.
var ErrDeltaMismatch = errors.New("serve: delta does not apply to the serving snapshot")

// ApplyDelta produces a new snapshot by patching only what the delta
// touches. Every surviving cluster shares its pre-rendered body bytes
// with the base snapshot — bodies carry no ID (see snapbin.Body), so a
// survivor whose canonical ID shifted needs no new bytes — and only
// the additions are rendered. The result is deep-equal to a
// from-scratch build of the patched mapping:
//
//   - Canonical cluster order (descending size, ties by smallest
//     member) is a pure function of membership, so re-sorting
//     survivors+additions reproduces the exact IDs a full build
//     assigns. Survivors keep their relative order, so remapping a
//     sorted posting list keeps it sorted.
//   - Added clusters render through the same bodyArena the full build
//     uses, byte for byte.
//   - θ and the histogram recompute from the patched descending size
//     slice with the same arithmetic the full build runs.
//
// The base snapshot is never mutated; on any validation failure the
// base keeps serving.
func (s *Snapshot) ApplyDelta(d *mapdiff.Delta) (*Snapshot, error) {
	return s.applyDeltaAt(d, time.Now())
}

// applyDeltaAt is ApplyDelta with an injectable clock for tests.
func (s *Snapshot) applyDeltaAt(d *mapdiff.Delta, now time.Time) (*Snapshot, error) {
	nOld := len(s.mapping.Clusters)

	// Verify every removal names a base cluster by its exact member
	// list. Carrying full membership in the delta makes "wrong base"
	// detectable here instead of surfacing as silent drift.
	deleted := make([]bool, nOld)
	delASNs := 0
	for _, members := range d.Removed {
		if len(members) == 0 {
			return nil, fmt.Errorf("%w: removal with no members", ErrDeltaMismatch)
		}
		c := s.mapping.ClusterOf(members[0])
		if c == nil || !slices.Equal(c.ASNs, members) {
			return nil, fmt.Errorf("%w: no organization with members %v", ErrDeltaMismatch, members)
		}
		if deleted[c.ID] {
			return nil, fmt.Errorf("%w: organization %d removed twice", ErrDeltaMismatch, c.ID)
		}
		deleted[c.ID] = true
		delASNs += len(members)
	}

	// Verify additions: sorted members, no overlap with each other or
	// with any surviving cluster.
	addASNs := 0
	claimed := make(map[asnum.ASN]bool)
	for i := range d.Added {
		c := &d.Added[i]
		if len(c.ASNs) == 0 {
			return nil, fmt.Errorf("%w: addition with no members", ErrDeltaMismatch)
		}
		for j, a := range c.ASNs {
			if j > 0 && c.ASNs[j-1] >= a {
				return nil, fmt.Errorf("%w: added organization members not strictly ascending", ErrDeltaMismatch)
			}
			if owner := s.mapping.ClusterOf(a); owner != nil && !deleted[owner.ID] {
				return nil, fmt.Errorf("%w: added organization claims %s, still held by organization %d",
					ErrDeltaMismatch, a, owner.ID)
			}
			if claimed[a] {
				return nil, fmt.Errorf("%w: %s added twice", ErrDeltaMismatch, a)
			}
			claimed[a] = true
		}
		addASNs += len(c.ASNs)
	}

	// Re-derive canonical order over survivors + additions. Survivors
	// arrive already canonically sorted relative to each other, so the
	// sort only has to place the (few) additions.
	type entry struct {
		members []asnum.ASN
		oldID   int // base cluster ID, or -1 for an addition
		addIdx  int // index into d.Added, or -1 for a survivor
	}
	entries := make([]entry, 0, nOld-len(d.Removed)+len(d.Added))
	for i := range s.mapping.Clusters {
		if !deleted[i] {
			entries = append(entries, entry{members: s.mapping.Clusters[i].ASNs, oldID: i, addIdx: -1})
		}
	}
	for i := range d.Added {
		entries = append(entries, entry{members: d.Added[i].ASNs, oldID: -1, addIdx: i})
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("serve: refusing to serve an empty mapping (delta removed every organization)")
	}
	sort.SliceStable(entries, func(a, b int) bool {
		return cluster.CompareCanonical(entries[a].members, entries[b].members) < 0
	})

	// Assemble the patched cluster slice and per-cluster serving
	// artifacts. A survivor keeps its base body bytes whatever its new
	// ID; an addition renders from scratch through the same code as a
	// full build.
	n := len(entries)
	clusters := make([]cluster.Cluster, n)
	lowerNames := make([]string, n)
	bodies := make([]snapbin.Body, n)
	remap := make([]int32, nOld) // base ID → patched ID, -1 if deleted
	for i := range remap {
		remap[i] = -1
	}
	arena := newBodyArena()
	for i, e := range entries {
		if e.oldID >= 0 {
			clusters[i] = s.mapping.Clusters[e.oldID]
			clusters[i].ID = i
			lowerNames[i] = s.lowerNames[e.oldID]
			bodies[i] = s.bodies[e.oldID]
			remap[e.oldID] = int32(i)
			continue
		}
		clusters[i] = d.Added[e.addIdx]
		clusters[i].ID = i
		lowerNames[i] = strings.ToLower(clusters[i].Name)
		if err := arena.render(&clusters[i], &bodies[i]); err != nil {
			return nil, fmt.Errorf("serve: rendering added organization: %w", err)
		}
	}

	// Splice the packed ASN→cluster index: one merge pass over the old
	// keys (dropping deletions, remapping survivors) interleaved with
	// the additions' sorted (ASN, ID) pairs.
	oldKeys, oldVals := s.mapping.RawIndex()
	addPairs := make([]uint64, 0, addASNs)
	for i := range entries {
		if entries[i].addIdx >= 0 {
			for _, a := range clusters[i].ASNs {
				addPairs = append(addPairs, uint64(a)<<32|uint64(uint32(i)))
			}
		}
	}
	slices.Sort(addPairs)
	keys := make([]asnum.ASN, 0, len(oldKeys)-delASNs+addASNs)
	vals := make([]int32, 0, len(oldKeys)-delASNs+addASNs)
	ai := 0
	for i, a := range oldKeys {
		v := remap[oldVals[i]]
		if v < 0 {
			continue
		}
		for ai < len(addPairs) && asnum.ASN(addPairs[ai]>>32) < a {
			keys = append(keys, asnum.ASN(addPairs[ai]>>32))
			vals = append(vals, int32(uint32(addPairs[ai])))
			ai++
		}
		keys = append(keys, a)
		vals = append(vals, v)
	}
	for ; ai < len(addPairs); ai++ {
		keys = append(keys, asnum.ASN(addPairs[ai]>>32))
		vals = append(vals, int32(uint32(addPairs[ai])))
	}

	// Restore re-verifies everything — canonical order, strict key
	// ascent, index↔membership correspondence — so a buggy or
	// adversarial delta fails here rather than serving wrong answers.
	m, err := cluster.Restore(clusters, keys, vals)
	if err != nil {
		return nil, fmt.Errorf("serve: patched mapping fails validation: %w", err)
	}

	// Patch the token index. One pass remaps every surviving posting
	// list into a single slab (deletions drop out, survivors renumber,
	// order is preserved because survivor remapping is monotonic), and
	// tokens keep the base list's sorted order. Additions then insert
	// their IDs — into a surviving token's postings, found by binary
	// search, or under a fresh token — and the (few) fresh tokens merge
	// into the list, so nothing is re-sorted.
	total := 0
	for _, ids := range s.postings {
		total += len(ids)
	}
	slab := make([]int32, 0, total)
	tokenList := make([]string, 0, len(s.tokenList))
	postings := make([][]int32, 0, len(s.tokenList))
	for ti, ids := range s.postings {
		start := len(slab)
		for _, id := range ids {
			if v := remap[id]; v >= 0 {
				slab = append(slab, v)
			}
		}
		if end := len(slab); end > start {
			tokenList = append(tokenList, s.tokenList[ti])
			postings = append(postings, slab[start:end:end])
		}
	}
	fresh := map[string][]int32{}
	for i := range entries {
		if entries[i].addIdx < 0 {
			continue
		}
		for _, tok := range tokenize(lowerNames[i]) {
			if ti, ok := slices.BinarySearch(tokenList, tok); ok {
				postings[ti] = insertID(postings[ti], int32(i))
			} else {
				fresh[tok] = insertID(fresh[tok], int32(i))
			}
		}
	}
	tokenList, postings = mergeTokens(tokenList, postings, fresh)

	// Recompute corpus statistics from the patched descending size
	// slice — the same inputs and arithmetic as a full build, so θ is
	// bit-identical.
	sizes := m.Sizes()
	theta, err := orgfactor.ThetaFromSizes(sizes, m.NumASNs())
	if err != nil {
		return nil, fmt.Errorf("serve: patched mapping fails θ validation: %w", err)
	}

	ns := &Snapshot{
		mapping:    m,
		tokenList:  tokenList,
		postings:   postings,
		lowerNames: lowerNames,
		bodies:     bodies,
		source:     s.source,
		loadedAt:   now,
		health:     s.health,
		loadMode:   LoadModeDelta,
	}
	// Survivors share body bytes with the base snapshot; if
	// those bytes live in a memory mapping, the patched snapshot takes
	// its own reference so the mapping outlives the base's retirement.
	// The acquire cannot fail here: the caller holds the base as a live
	// serving (or caller-owned) snapshot, so its creation reference is
	// still up.
	if s.backing != nil && s.backing.acquire() {
		ns.backing = s.backing
	}
	ns.scratchPool.New = func() any {
		return &searchScratch{bits: make([]uint64, (n+63)/64)}
	}
	ns.stats = Stats{
		Orgs:          m.NumOrgs(),
		ASNs:          m.NumASNs(),
		Theta:         theta,
		MultiASOrgs:   multiCount(sizes),
		LargestOrg:    sizes[0],
		SizeHistogram: sizeHistogram(sizes),
	}
	return ns, nil
}

// insertID adds id to an ascending posting list, keeping it ascending
// and duplicate-free. A list at capacity (every slab-backed one) is
// copied rather than grown in place, so its slab neighbours are never
// overwritten.
func insertID(ids []int32, id int32) []int32 {
	pos, found := slices.BinarySearch(ids, id)
	if found {
		return ids
	}
	return slices.Insert(ids, pos, id)
}

// mergeTokens merges fresh tokens, none already in the ascending list,
// into list and its parallel postings.
func mergeTokens(list []string, postings [][]int32, fresh map[string][]int32) ([]string, [][]int32) {
	if len(fresh) == 0 {
		return list, postings
	}
	keys := make([]string, 0, len(fresh))
	for tok := range fresh {
		keys = append(keys, tok)
	}
	sort.Strings(keys)
	outList := make([]string, 0, len(list)+len(keys))
	outPost := make([][]int32, 0, len(list)+len(keys))
	i := 0
	for _, tok := range keys {
		for ; i < len(list) && list[i] < tok; i++ {
			outList = append(outList, list[i])
			outPost = append(outPost, postings[i])
		}
		outList = append(outList, tok)
		outPost = append(outPost, fresh[tok])
	}
	outList = append(outList, list[i:]...)
	return outList, append(outPost, postings[i:]...)
}
