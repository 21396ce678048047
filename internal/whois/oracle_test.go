package whois

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
)

// mapSnapshot is the map-of-pointers Snapshot the slice layout
// replaced, kept as the reference TestSnapshotMatchesMapOracle
// compares against.
type mapSnapshot struct {
	orgs    map[string]*Org
	asns    map[asnum.ASN]*ASRecord
	members map[string][]asnum.ASN
}

func newMapSnapshot() *mapSnapshot {
	return &mapSnapshot{
		orgs:    make(map[string]*Org),
		asns:    make(map[asnum.ASN]*ASRecord),
		members: make(map[string][]asnum.ASN),
	}
}

func (s *mapSnapshot) AddOrg(o Org) {
	cp := o
	s.orgs[o.ID] = &cp
}

func (s *mapSnapshot) AddAS(r ASRecord) {
	if prev, ok := s.asns[r.ASN]; ok {
		old := s.members[prev.OrgID]
		for i, a := range old {
			if a == r.ASN {
				s.members[prev.OrgID] = append(old[:i], old[i+1:]...)
				break
			}
		}
	}
	cp := r
	s.asns[r.ASN] = &cp
	if _, ok := s.orgs[r.OrgID]; !ok {
		s.orgs[r.OrgID] = &Org{ID: r.OrgID, Source: r.Source}
	}
	s.members[r.OrgID] = append(s.members[r.OrgID], r.ASN)
}

func (s *mapSnapshot) NumOrgs() int             { return len(s.orgs) }
func (s *mapSnapshot) NumASNs() int             { return len(s.asns) }
func (s *mapSnapshot) Org(id string) *Org       { return s.orgs[id] }
func (s *mapSnapshot) AS(a asnum.ASN) *ASRecord { return s.asns[a] }
func (s *mapSnapshot) Members(id string) []asnum.ASN {
	m := append([]asnum.ASN(nil), s.members[id]...)
	asnum.Sort(m)
	return m
}

func (s *mapSnapshot) OrgOf(a asnum.ASN) *Org {
	r := s.asns[a]
	if r == nil {
		return nil
	}
	return s.orgs[r.OrgID]
}

func (s *mapSnapshot) ASNs() []asnum.ASN {
	out := make([]asnum.ASN, 0, len(s.asns))
	for a := range s.asns {
		out = append(out, a)
	}
	asnum.Sort(out)
	return out
}

func (s *mapSnapshot) OrgIDs() []string {
	out := make([]string, 0, len(s.orgs))
	for id := range s.orgs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (s *mapSnapshot) SiblingSets() []cluster.SiblingSet {
	ids := s.OrgIDs()
	out := make([]cluster.SiblingSet, 0, len(ids))
	for _, id := range ids {
		members := s.Members(id)
		if len(members) == 0 {
			continue
		}
		out = append(out, cluster.SiblingSet{
			ASNs:     members,
			Source:   cluster.FeatureOIDW,
			Evidence: asnum.WhoisOrg(id).String(),
		})
	}
	return out
}

// write is Write over the oracle: organizations, then AS records, each
// in sorted order.
func (s *mapSnapshot) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, id := range s.OrgIDs() {
		o := s.orgs[id]
		if err := enc.Encode(record{Type: "Organization", OrgID: o.ID,
			Name: o.Name, Country: o.Country, Source: o.Source, Changed: o.Changed}); err != nil {
			return err
		}
	}
	for _, a := range s.ASNs() {
		r := s.asns[a]
		if err := enc.Encode(record{Type: "ASN",
			ASN:   fmt.Sprintf("%d", uint32(r.ASN)),
			OrgID: r.OrgID, Name: r.Name, OpaqueID: r.OpaqueID, Source: r.Source}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// The operation kinds of TestSnapshotMatchesMapOracle's sequences.
const (
	opNewOrg = iota
	opReplaceOrg
	opNewAS
	opMoveAS   // an ASN already held by one org, added under another
	opRepeatAS // an ASN added again under the org that holds it
	opStubAS   // an AS record under an org never added
	opKinds
)

// TestSnapshotMatchesMapOracle sends seeded random operation sequences
// to the slice-backed Snapshot and to the map-backed oracle, and
// requires every accessor and the serialized bytes to agree.
func TestSnapshotMatchesMapOracle(t *testing.T) {
	var seen [opKinds]int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewSnapshot("20240701"), newMapSnapshot()
		var orgIDs []string
		var asns []asnum.ASN
		nextOrg, nextASN := 0, asnum.ASN(64496)
		word := func() string { return []string{"", "Acme", "Level 3", "Ünï", "x\"y"}[rng.Intn(5)] }
		rir := func() string { return []string{"", "ARIN", "RIPE", "APNIC"}[rng.Intn(4)] }
		as := func(a asnum.ASN, org string) ASRecord {
			return ASRecord{ASN: a, OrgID: org, Name: word(), OpaqueID: word(), Source: rir()}
		}
		for n := rng.Intn(80); n > 0; n-- {
			op := rng.Intn(opKinds)
			if len(orgIDs) == 0 {
				op = opNewOrg
			}
			if len(asns) == 0 && (op == opMoveAS || op == opRepeatAS) {
				op = opNewAS
			}
			seen[op]++
			switch op {
			case opNewOrg, opReplaceOrg:
				var id string
				if op == opNewOrg {
					id = fmt.Sprintf("ORG-%d", nextOrg)
					nextOrg++
					orgIDs = append(orgIDs, id)
				} else {
					id = orgIDs[rng.Intn(len(orgIDs))]
				}
				o := Org{ID: id, Name: word(), Country: word(), Source: rir(), Changed: word()}
				got.AddOrg(o)
				want.AddOrg(o)
			case opNewAS:
				r := as(nextASN, orgIDs[rng.Intn(len(orgIDs))])
				nextASN += asnum.ASN(1 + rng.Intn(3))
				asns = append(asns, r.ASN)
				got.AddAS(r)
				want.AddAS(r)
			case opMoveAS, opRepeatAS:
				a := asns[rng.Intn(len(asns))]
				org := want.AS(a).OrgID
				if op == opMoveAS {
					org = orgIDs[rng.Intn(len(orgIDs))]
				}
				r := as(a, org)
				got.AddAS(r)
				want.AddAS(r)
			case opStubAS:
				id := fmt.Sprintf("STUB-%d", nextOrg)
				nextOrg++
				orgIDs = append(orgIDs, id)
				a := nextASN
				if len(asns) > 0 && rng.Intn(2) == 0 {
					a = asns[rng.Intn(len(asns))]
				} else {
					nextASN++
					asns = append(asns, a)
				}
				r := as(a, id)
				got.AddAS(r)
				want.AddAS(r)
			}
		}
		unknownOrgs := []string{"", "ORG-UNKNOWN", fmt.Sprintf("ORG-%d", nextOrg)}
		unknownASNs := []asnum.ASN{0, 64495, nextASN, 4294967295}
		compareSnapshots(t, seed, got, want, append(orgIDs, unknownOrgs...), append(asns, unknownASNs...))
	}
	for op, n := range seen {
		if n == 0 {
			t.Errorf("operation kind %d never ran", op)
		}
	}
}

func compareSnapshots(t *testing.T, seed int64, got *Snapshot, want *mapSnapshot, orgIDs []string, asns []asnum.ASN) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
	}
	if got.NumOrgs() != want.NumOrgs() || got.NumASNs() != want.NumASNs() {
		fail("counts %d/%d, oracle %d/%d", got.NumOrgs(), got.NumASNs(), want.NumOrgs(), want.NumASNs())
	}
	if g, w := got.ASNs(), want.ASNs(); !reflect.DeepEqual(g, w) {
		fail("ASNs %v, oracle %v", g, w)
	}
	if g, w := got.OrgIDs(), want.OrgIDs(); !reflect.DeepEqual(g, w) {
		fail("OrgIDs %v, oracle %v", g, w)
	}
	if g, w := got.SiblingSets(), want.SiblingSets(); !reflect.DeepEqual(g, w) {
		fail("SiblingSets %v, oracle %v", g, w)
	}
	for _, id := range orgIDs {
		if g, w := got.Org(id), want.Org(id); (g == nil) != (w == nil) || g != nil && *g != *w {
			fail("Org(%q) = %+v, oracle %+v", id, g, w)
		}
		if g, w := got.Members(id), want.Members(id); !reflect.DeepEqual(g, w) {
			fail("Members(%q) = %v, oracle %v", id, g, w)
		}
	}
	for _, a := range asns {
		if g, w := got.AS(a), want.AS(a); (g == nil) != (w == nil) || g != nil && *g != *w {
			fail("AS(%v) = %+v, oracle %+v", a, g, w)
		}
		if g, w := got.OrgOf(a), want.OrgOf(a); (g == nil) != (w == nil) || g != nil && *g != *w {
			fail("OrgOf(%v) = %+v, oracle %+v", a, g, w)
		}
	}
	var gb, wb bytes.Buffer
	if err := Write(&gb, got); err != nil {
		fail("Write: %v", err)
	}
	if err := want.write(&wb); err != nil {
		fail("oracle write: %v", err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		fail("Write differs from the oracle's\n got: %q\nwant: %q", gb.String(), wb.String())
	}
}

// TestSnapshotHeapObjects guards the slice layout: a snapshot of 100,000
// AS records under 50,000 organizations, whose strings are all slices of
// one shared string, retains a few hundred heap objects (its slices and
// index maps), not one or more per record.
func TestSnapshotHeapObjects(t *testing.T) {
	const nOrgs, nASNs, width = 50_000, 100_000, len("ORG-000000")
	var b strings.Builder
	for i := 0; i < nOrgs; i++ {
		fmt.Fprintf(&b, "ORG-%06d", i)
	}
	shared := b.String()
	id := func(i int) string { return shared[i*width : (i+1)*width] }

	before := heapObjects()
	s := NewSnapshot("20240701")
	for i := 0; i < nOrgs; i++ {
		s.AddOrg(Org{ID: id(i), Name: id(i)[4:], Country: "US", Source: "ARIN"})
	}
	for i := 0; i < nASNs; i++ {
		s.AddAS(ASRecord{ASN: asnum.ASN(1 + i), OrgID: id(i % nOrgs), Name: id(i / 2), Source: "ARIN"})
	}
	retained := heapObjects() - before
	if limit := int64(nASNs / 100); retained >= limit {
		t.Fatalf("snapshot of %d AS records retains %d heap objects, want fewer than %d", nASNs, retained, limit)
	}
	t.Logf("snapshot of %d AS records / %d orgs retains %d heap objects", nASNs, nOrgs, retained)
	lookups := testing.AllocsPerRun(100, func() {
		if s.Org(id(7)) == nil || s.AS(8) == nil || s.OrgOf(9) == nil {
			t.Fatal("lookup of a known key returned nil")
		}
	})
	if lookups != 0 {
		t.Errorf("Org, AS and OrgOf allocate %v times per call", lookups)
	}
}

// heapObjects returns the number of live heap objects after two full
// collections.
func heapObjects() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapObjects)
}
