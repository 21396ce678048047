// Package whois models WHOIS-derived AS-to-Organization data in the
// format published by CAIDA's AS2Org dataset: a JSON-lines file mixing
// Organization records and ASN records, linked by organizationId. This is
// the OID_W source of Borges (§4.1).
//
// Each ASN must be assigned to an organization when allocated, so WHOIS
// provides an AS-to-Organization mapping for all allocated networks; the
// paper uses this universe as the vertex set for the Organization Factor
// (§5.4).
//
// The pointers Org, AS and OrgOf return point into the snapshot's own
// storage: they are read-only views. Change a record through AddOrg or
// AddAS; a view taken before a later call may show the record as it was.
package whois

import (
	"sort"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
)

// Org is one WHOIS organization record (CAIDA "Organization" type).
type Org struct {
	// ID is the RIR organization identifier, e.g. "LVLT-ARIN".
	ID string `json:"organizationId"`
	// Name is the registered organization name.
	Name string `json:"name"`
	// Country is the ISO 3166-1 alpha-2 registration country.
	Country string `json:"country"`
	// Source is the RIR the record came from (ARIN, RIPE, APNIC, …).
	Source string `json:"source"`
	// Changed is the RIR's last-modified date (YYYYMMDD), if known.
	Changed string `json:"changed,omitempty"`
}

// ASRecord links one ASN to its WHOIS organization (CAIDA "ASN" type).
type ASRecord struct {
	ASN asnum.ASN
	// OrgID references Org.ID.
	OrgID string
	// Name is the AS's registered network name (e.g. "LEVEL3").
	Name string
	// OpaqueID is the RIR's opaque handle, if published.
	OpaqueID string
	// Source is the RIR the record came from.
	Source string
}

// Snapshot is a parsed AS2Org snapshot. Its records are values in two
// slices linked by int32 indexes, so a paper-scale snapshot is a few
// hundred heap objects beside its strings, not one per record: each
// organization holds the head and tail of its AS records' member list,
// and each AS record holds its organization and the next member.
type Snapshot struct {
	// Date is the snapshot date in YYYYMMDD form (e.g. "20240701").
	Date string

	orgs   []orgEntry
	recs   []asEntry
	orgIdx map[string]int32
	asnIdx map[asnum.ASN]int32
}

// none ends a member list.
const none int32 = -1

type orgEntry struct {
	Org
	head, tail int32 // first and last member in Snapshot.recs, or none
}

type asEntry struct {
	ASRecord
	org  int32 // owner in Snapshot.orgs
	next int32 // next member of the same organization, or none
}

// NewSnapshot returns an empty snapshot for the given date.
func NewSnapshot(date string) *Snapshot {
	return &Snapshot{
		Date:   date,
		orgIdx: make(map[string]int32),
		asnIdx: make(map[asnum.ASN]int32),
	}
}

// AddOrg inserts or replaces an organization record.
func (s *Snapshot) AddOrg(o Org) {
	if i, ok := s.orgIdx[o.ID]; ok {
		s.orgs[i].Org = o
		return
	}
	s.appendOrg(o)
}

func (s *Snapshot) appendOrg(o Org) int32 {
	i := int32(len(s.orgs))
	s.orgIdx[o.ID] = i
	s.orgs = append(s.orgs, orgEntry{Org: o, head: none, tail: none})
	return i
}

// AddAS inserts or replaces an AS record. If the record's organization is
// unknown a stub Org is created, mirroring CAIDA's behaviour of keeping
// every allocated ASN mapped.
func (s *Snapshot) AddAS(r ASRecord) {
	oi, ok := s.orgIdx[r.OrgID]
	if !ok {
		oi = s.appendOrg(Org{ID: r.OrgID, Source: r.Source})
	}
	e := asEntry{ASRecord: r, org: oi, next: none}
	ri, ok := s.asnIdx[r.ASN]
	if ok {
		s.unlink(ri)
		s.recs[ri] = e
	} else {
		ri = int32(len(s.recs))
		s.asnIdx[r.ASN] = ri
		s.recs = append(s.recs, e)
	}
	// Append ri to its organization's member list.
	o := &s.orgs[oi]
	if o.tail == none {
		o.head = ri
	} else {
		s.recs[o.tail].next = ri
	}
	o.tail = ri
}

// unlink removes record ri from its organization's member list.
func (s *Snapshot) unlink(ri int32) {
	o := &s.orgs[s.recs[ri].org]
	prev := none
	for i := o.head; i != ri; i = s.recs[i].next {
		prev = i
	}
	if prev == none {
		o.head = s.recs[ri].next
	} else {
		s.recs[prev].next = s.recs[ri].next
	}
	if o.tail == ri {
		o.tail = prev
	}
}

// NumOrgs returns the number of organization records.
func (s *Snapshot) NumOrgs() int { return len(s.orgs) }

// NumASNs returns the number of AS records.
func (s *Snapshot) NumASNs() int { return len(s.recs) }

// Org returns the organization record for id, or nil.
func (s *Snapshot) Org(id string) *Org {
	if i, ok := s.orgIdx[id]; ok {
		return &s.orgs[i].Org
	}
	return nil
}

// AS returns the AS record for a, or nil.
func (s *Snapshot) AS(a asnum.ASN) *ASRecord {
	if i, ok := s.asnIdx[a]; ok {
		return &s.recs[i].ASRecord
	}
	return nil
}

// OrgOf returns the organization record owning a, or nil if a is unknown.
func (s *Snapshot) OrgOf(a asnum.ASN) *Org {
	if i, ok := s.asnIdx[a]; ok {
		return &s.orgs[s.recs[i].org].Org
	}
	return nil
}

// Members returns the sorted ASNs registered under org id.
func (s *Snapshot) Members(id string) []asnum.ASN {
	i, ok := s.orgIdx[id]
	if !ok {
		return nil
	}
	var m []asnum.ASN
	for r := s.orgs[i].head; r != none; r = s.recs[r].next {
		m = append(m, s.recs[r].ASN)
	}
	asnum.Sort(m)
	return m
}

// ASNs returns all ASNs in the snapshot, sorted.
func (s *Snapshot) ASNs() []asnum.ASN {
	out := make([]asnum.ASN, len(s.recs))
	for i := range s.recs {
		out[i] = s.recs[i].ASN
	}
	asnum.Sort(out)
	return out
}

// OrgIDs returns all organization IDs, sorted.
func (s *Snapshot) OrgIDs() []string {
	out := make([]string, len(s.orgs))
	for i := range s.orgs {
		out[i] = s.orgs[i].ID
	}
	sort.Strings(out)
	return out
}

// SiblingSets converts the snapshot's organization memberships into
// sibling sets (the OID_W feature). Every organization — including
// single-AS organizations — yields one set, so consumers can register the
// full WHOIS universe.
func (s *Snapshot) SiblingSets() []cluster.SiblingSet {
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
