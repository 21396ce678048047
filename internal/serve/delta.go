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
// touches: survivors keep their names, additions are tokenized. The
// result is deep-equal to a from-scratch build of the patched mapping:
//
//   - Canonical cluster order (descending size, ties by smallest
//     member) is a pure function of membership, so re-sorting
//     survivors+additions reproduces the exact IDs a full build
//     assigns. Survivors keep their relative order, so remapping a
//     sorted posting list keeps it sorted.
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

	// Assemble the patched cluster slice. A survivor keeps its base
	// lowercase name whatever its new ID; an addition lowercases its
	// own. The lowercase names go straight into a table sized for the
	// base's names plus the additions'.
	n := len(entries)
	addLower := make([]string, len(d.Added))
	nameBytes := len(s.lowerNames.Text)
	for i := range d.Added {
		addLower[i] = strings.ToLower(d.Added[i].Name)
		nameBytes += len(addLower[i])
	}
	var names snapbin.StringsBuilder
	if err := growNames(&names, n, nameBytes); err != nil {
		return nil, err
	}
	clusters := make([]cluster.Cluster, n)
	remap := make([]int32, nOld) // base ID → patched ID, -1 if deleted
	for i := range remap {
		remap[i] = -1
	}
	for i, e := range entries {
		if e.oldID >= 0 {
			clusters[i] = s.mapping.Clusters[e.oldID]
			clusters[i].ID = i
			names.Add(s.lowerNames.At(e.oldID))
			remap[e.oldID] = int32(i)
			continue
		}
		clusters[i] = d.Added[e.addIdx]
		clusters[i].ID = i
		names.Add(addLower[e.addIdx])
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
		for _, tok := range tokenize(addLower[entries[i].addIdx]) {
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
	var tokens snapbin.StringsBuilder
	tokens.Grow(s.tokens.Len()+len(addToks), len(s.tokens.Text)+addBytes)
	postings := snapbin.Postings{
		IDs: make([]int32, 0, len(s.postings.IDs)+addIDs),
		Off: make([]uint32, 1, s.tokens.Len()+len(addToks)+1),
	}
	emit := func(tok string, base, add []int32) {
		start := len(postings.IDs)
		for _, id := range base {
			v := remap[id]
			if v < 0 {
				continue
			}
			for len(add) > 0 && add[0] < v {
				postings.IDs, add = append(postings.IDs, add[0]), add[1:]
			}
			postings.IDs = append(postings.IDs, v)
		}
		postings.IDs = append(postings.IDs, add...)
		if len(postings.IDs) > start {
			tokens.Add(tok)
			postings.Off = append(postings.Off, uint32(len(postings.IDs)))
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
		tokens:     tokens.Table(),
		postings:   postings,
		lowerNames: names.Table(),
		source:     s.source,
		loadedAt:   now,
		health:     s.health,
		loadMode:   LoadModeDelta,
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
