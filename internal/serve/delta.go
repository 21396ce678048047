package serve

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/mapdiff"
	"github.com/nu-aqualab/borges/internal/snapbin"
)

// ErrDeltaMismatch marks a delta whose removals do not describe the
// serving snapshot — it was computed against a different base. The
// reload path surfaces this distinctly so an operator retries with a
// full snapshot instead of a corrected delta.
var ErrDeltaMismatch = errors.New("serve: delta does not apply to the serving snapshot")

// ApplyDelta produces a new snapshot by patching only what the delta
// touches: survivors keep their names, additions are tokenized. The
// patched snapshot owns its tables — one merge pass writes its names,
// members and feature bytes — so nothing of the base stays reachable
// once the base is retired. The result is deep-equal
// to a from-scratch build of the patched mapping:
//
//   - Canonical cluster order (descending size, ties by smallest
//     member) is a pure function of membership, so merging the
//     survivors with the sorted additions reproduces the exact IDs a
//     full build assigns. Survivors keep their relative order, so
//     remapping a sorted posting list keeps it sorted.
//   - θ and the histogram recompute from the patched member offsets
//     with the same arithmetic the full build runs.
//   - The token and posting tables come from mergeTokens, the builder a
//     full build runs over an empty base.
//
// The base snapshot is never mutated; on any validation failure the
// base keeps serving.
func (s *Snapshot) ApplyDelta(d *mapdiff.Delta) (*Snapshot, error) {
	return s.applyDeltaAt(d, time.Now())
}

// applyDeltaAt is ApplyDelta with an injectable clock for tests.
func (s *Snapshot) applyDeltaAt(d *mapdiff.Delta, now time.Time) (*Snapshot, error) {
	nOld := s.orgs.Len()

	// Verify every removal names a base cluster by its exact member
	// list. Carrying full membership in the delta makes "wrong base"
	// detectable here instead of surfacing as silent drift. remap takes
	// each base ID to its patched ID once the merge below assigns it;
	// until then -1 marks a removal.
	remap := make([]int32, nOld)
	delASNs, delNames := 0, 0
	for _, members := range d.Removed {
		if len(members) == 0 {
			return nil, fmt.Errorf("%w: removal with no members", ErrDeltaMismatch)
		}
		id, ok := s.index.Lookup(members[0])
		if !ok || !slices.Equal(s.orgs.Members.At(id), members) {
			return nil, fmt.Errorf("%w: no organization with members %v", ErrDeltaMismatch, members)
		}
		if remap[id] < 0 {
			return nil, fmt.Errorf("%w: organization %d removed twice", ErrDeltaMismatch, id)
		}
		remap[id] = -1
		delASNs += len(members)
		delNames += len(s.orgs.Names.At(id))
	}

	// Verify additions: sorted members, none held by a surviving
	// cluster, none added twice. addPairs holds every added (ASN,
	// addition) pair; sorted, a repeated ASN sits beside its twin.
	addASNs, addNames := 0, 0
	for i := range d.Added {
		c := &d.Added[i]
		if len(c.ASNs) == 0 {
			return nil, fmt.Errorf("%w: addition with no members", ErrDeltaMismatch)
		}
		for j, a := range c.ASNs {
			if j > 0 && c.ASNs[j-1] >= a {
				return nil, fmt.Errorf("%w: added organization members not strictly ascending", ErrDeltaMismatch)
			}
			if owner, ok := s.index.Lookup(a); ok && remap[owner] >= 0 {
				return nil, fmt.Errorf("%w: added organization claims %s, still held by organization %d",
					ErrDeltaMismatch, a, owner)
			}
		}
		addASNs += len(c.ASNs)
		addNames += len(c.Name)
	}
	addPairs := make([]uint64, 0, addASNs)
	for i := range d.Added {
		for _, a := range d.Added[i].ASNs {
			addPairs = append(addPairs, uint64(a)<<32|uint64(i))
		}
	}
	slices.Sort(addPairs)
	for i := 1; i < len(addPairs); i++ {
		if addPairs[i]>>32 == addPairs[i-1]>>32 {
			return nil, fmt.Errorf("%w: %s added twice", ErrDeltaMismatch, asnum.ASN(addPairs[i]>>32))
		}
	}
	n := nOld - len(d.Removed) + len(d.Added)
	if n == 0 {
		return nil, fmt.Errorf("serve: refusing to serve an empty mapping (delta removed every organization)")
	}
	nameBytes := len(s.orgs.Names.Text) - delNames + addNames
	if err := namesFit(nameBytes); err != nil {
		return nil, err
	}

	// Place the additions among the survivors in one merge walk.
	// Survivors arrive in canonical order and member sets are disjoint,
	// so no two organizations compare equal: walking the survivors
	// beside the sorted additions gives the order a full sort would.
	// Each organization is written to the patched tables as it is
	// placed, a survivor copying its base name, members and features;
	// addID records each addition's patched ID.
	order := make([]int32, len(d.Added))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return cluster.CompareCanonical(d.Added[a].ASNs, d.Added[b].ASNs)
	})
	addID := make([]int32, len(d.Added))
	var orgs snapbin.OrgsBuilder
	orgs.Grow(n, s.index.Len()-delASNs+addASNs, nameBytes)
	next, placed := 0, int32(0)
	add := func() {
		k := order[next]
		orgs.Add(&d.Added[k])
		addID[k] = placed
		next, placed = next+1, placed+1
	}
	for i := range nOld {
		if remap[i] < 0 {
			continue
		}
		c := s.orgs.At(i)
		for next < len(order) && cluster.CompareCanonical(d.Added[order[next]].ASNs, c.ASNs) < 0 {
			add()
		}
		orgs.Add(&c)
		remap[i] = placed
		placed++
	}
	for next < len(order) {
		add()
	}
	table := orgs.Table()

	// Splice the packed ASN→cluster index: one merge pass over the old
	// keys (dropping deletions, remapping survivors) interleaved with
	// the additions' sorted (ASN, ID) pairs.
	oldKeys, oldVals := s.index.Keys(), s.index.Vals()
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
			vals = append(vals, addID[uint32(addPairs[ai])])
			ai++
		}
		keys = append(keys, a)
		vals = append(vals, v)
	}
	for ; ai < len(addPairs); ai++ {
		keys = append(keys, asnum.ASN(addPairs[ai]>>32))
		vals = append(vals, addID[uint32(addPairs[ai])])
	}

	// Restore re-verifies everything — no empty organization, canonical
	// order, strict key ascent, index↔membership correspondence — so a
	// buggy or adversarial delta fails here rather than serving wrong
	// answers.
	idx, err := cluster.Restore(table.Members.Items, table.Members.Off, keys, vals)
	if err != nil {
		return nil, fmt.Errorf("serve: patched mapping fails validation: %w", err)
	}

	// Patch the token index: the additions, tokenized in patched-ID
	// order, merge into the base's remapped posting lists.
	added := map[string][]int32{}
	for _, k := range order {
		addTokens(added, addID[k], d.Added[k].Name)
	}
	tokens, postings, err := mergeTokens(s.tokens, s.postings, remap, added)
	if err != nil {
		return nil, err
	}

	// Recompute corpus statistics from the patched member offsets — the
	// same inputs and arithmetic as a full build, so θ is bit-identical.
	stats, err := orgStats(&table, idx.Len())
	if err != nil {
		return nil, fmt.Errorf("serve: patched mapping fails θ validation: %w", err)
	}

	ns := &Snapshot{
		orgs:     table,
		index:    idx,
		stats:    stats,
		tokens:   tokens,
		postings: postings,
		source:   s.source,
		loadedAt: now,
		health:   s.health,
		loadMode: LoadModeDelta,
	}
	return ns, nil
}
