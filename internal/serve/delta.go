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
//     member) is a pure function of membership, so re-sorting
//     survivors+additions reproduces the exact IDs a full build
//     assigns. Survivors keep their relative order, so remapping a
//     sorted posting list keeps it sorted.
//   - θ and the histogram recompute from the patched member offsets
//     with the same arithmetic the full build runs.
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
	// detectable here instead of surfacing as silent drift.
	deleted := make([]bool, nOld)
	delASNs := 0
	for _, members := range d.Removed {
		if len(members) == 0 {
			return nil, fmt.Errorf("%w: removal with no members", ErrDeltaMismatch)
		}
		id, ok := s.index.Lookup(members[0])
		if !ok || !slices.Equal(s.orgs.Members.At(id), members) {
			return nil, fmt.Errorf("%w: no organization with members %v", ErrDeltaMismatch, members)
		}
		if deleted[id] {
			return nil, fmt.Errorf("%w: organization %d removed twice", ErrDeltaMismatch, id)
		}
		deleted[id] = true
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
			if owner, ok := s.index.Lookup(a); ok && !deleted[owner] {
				return nil, fmt.Errorf("%w: added organization claims %s, still held by organization %d",
					ErrDeltaMismatch, a, owner)
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
	for i := range nOld {
		if !deleted[i] {
			entries = append(entries, entry{members: s.orgs.Members.At(i), oldID: i, addIdx: -1})
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

	// Write the patched organization tables in one pass over the new
	// order. A survivor copies its base name, members and features
	// whatever its new ID. Every table is sized exactly first.
	n := len(entries)
	nameBytes := 0
	for _, e := range entries {
		if e.oldID >= 0 {
			nameBytes += len(s.orgs.Names.At(e.oldID))
		} else {
			nameBytes += len(d.Added[e.addIdx].Name)
		}
	}
	if err := namesFit(nameBytes); err != nil {
		return nil, err
	}
	var orgs snapbin.OrgsBuilder
	orgs.Grow(n, s.index.Len()-delASNs+addASNs, nameBytes)
	remap := make([]int32, nOld) // base ID → patched ID, -1 if deleted
	for i := range remap {
		remap[i] = -1
	}
	for i, e := range entries {
		if e.oldID >= 0 {
			c := s.orgs.At(e.oldID)
			orgs.Add(&c)
			remap[e.oldID] = int32(i)
			continue
		}
		orgs.Add(&d.Added[e.addIdx])
	}
	table := orgs.Table()

	// Splice the packed ASN→cluster index: one merge pass over the old
	// keys (dropping deletions, remapping survivors) interleaved with
	// the additions' sorted (ASN, ID) pairs.
	oldKeys, oldVals := s.index.Keys(), s.index.Vals()
	addPairs := make([]uint64, 0, addASNs)
	for i := range entries {
		if entries[i].addIdx >= 0 {
			for _, a := range entries[i].members {
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

	// Restore re-verifies everything — no empty organization, canonical
	// order, strict key ascent, index↔membership correspondence — so a
	// buggy or adversarial delta fails here rather than serving wrong
	// answers.
	idx, err := cluster.Restore(table.Members.Items, table.Members.Off, keys, vals)
	if err != nil {
		return nil, fmt.Errorf("serve: patched mapping fails validation: %w", err)
	}

	// Patch the token index straight into new tables. The additions'
	// ids gather per token, ascending because entries are visited in ID
	// order. One merge then walks the base's sorted tokens beside the
	// additions' sorted tokens and writes each token's surviving ids,
	// remapped (deletions drop out; survivor remapping is monotonic, so
	// order holds), merged with its additions' ids. A token left with
	// no ids drops out; nothing is re-sorted but the additions' tokens.
	added := map[string][]int32{}
	for i := range entries {
		if entries[i].addIdx < 0 {
			continue
		}
		for _, tok := range tokenize(strings.ToLower(d.Added[entries[i].addIdx].Name)) {
			if ids := added[tok]; len(ids) == 0 || ids[len(ids)-1] != int32(i) {
				added[tok] = append(ids, int32(i))
			}
		}
	}
	addToks := make([]string, 0, len(added))
	addBytes, addIDs := 0, 0
	for tok, ids := range added {
		addToks = append(addToks, tok)
		addBytes += len(tok)
		addIDs += len(ids)
	}
	sort.Strings(addToks)
	if err := namesFit(len(s.tokens.Text) + addBytes); err != nil {
		return nil, err
	}
	var tokens snapbin.StringsBuilder
	tokens.Grow(s.tokens.Len()+len(addToks), len(s.tokens.Text)+addBytes)
	postings := snapbin.Postings{
		Items: make([]int32, 0, len(s.postings.Items)+addIDs),
		Off:   make([]uint32, 1, s.tokens.Len()+len(addToks)+1),
	}
	emit := func(tok string, base, add []int32) {
		start := len(postings.Items)
		for _, id := range base {
			v := remap[id]
			if v < 0 {
				continue
			}
			for len(add) > 0 && add[0] < v {
				postings.Items, add = append(postings.Items, add[0]), add[1:]
			}
			postings.Items = append(postings.Items, v)
		}
		postings.Items = append(postings.Items, add...)
		if len(postings.Items) > start {
			tokens.Add(tok)
			postings.Off = append(postings.Off, uint32(len(postings.Items)))
		}
	}
	fi := 0
	for ti := range s.tokens.Len() {
		tok := s.tokens.At(ti)
		for ; fi < len(addToks) && addToks[fi] < tok; fi++ {
			emit(addToks[fi], nil, added[addToks[fi]])
		}
		var add []int32
		if fi < len(addToks) && addToks[fi] == tok {
			add = added[tok]
			fi++
		}
		emit(tok, s.postings.At(ti), add)
	}
	for ; fi < len(addToks); fi++ {
		emit(addToks[fi], nil, added[addToks[fi]])
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
		tokens:   tokens.Table(),
		postings: postings,
		source:   s.source,
		loadedAt: now,
		health:   s.health,
		loadMode: LoadModeDelta,
	}
	ns.scratchPool.New = func() any {
		return &searchScratch{bits: make([]uint64, (n+63)/64)}
	}
	return ns, nil
}
