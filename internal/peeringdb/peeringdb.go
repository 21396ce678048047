// Package peeringdb models the subset of the PeeringDB data schema that
// Borges consumes: network (net) objects and organization (org) objects
// linked by a one-to-many relationship (the OID_P source of §4.1), plus
// the free-text "notes" and "aka" fields mined by the NER module (§4.2)
// and the self-reported "website" field used by web-based inference
// (§4.3).
//
// The on-disk format matches PeeringDB's public API dump: a single JSON
// document with top-level "org" and "net" tables, each wrapping a "data"
// array.
package peeringdb

import (
	"slices"
	"sort"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
)

// Org is a PeeringDB organization object (abridged).
type Org struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Website string `json:"website,omitempty"`
	Country string `json:"country,omitempty"`
}

// Net is a PeeringDB network object (abridged to the fields Borges uses).
type Net struct {
	ID    int       `json:"id"`
	OrgID int       `json:"org_id"`
	ASN   asnum.ASN `json:"asn"`
	Name  string    `json:"name"`
	// Aka is the "also known as" free-text field.
	Aka string `json:"aka,omitempty"`
	// Notes is the operator-maintained free-text notes field.
	Notes string `json:"notes,omitempty"`
	// Website is the self-reported operator website.
	Website string `json:"website,omitempty"`
	// InfoType is the self-declared network type (NSP, Content, …).
	InfoType string `json:"info_type,omitempty"`
}

// HasText reports whether the net carries any free text in notes or aka.
func (n *Net) HasText() bool { return n.Notes != "" || n.Aka != "" }

// Snapshot is a parsed PeeringDB snapshot.
type Snapshot struct {
	// Date is the snapshot date in YYYYMMDD form (e.g. "20240724").
	Date string

	orgs    map[int]*Org
	nets    map[int]*Net
	byASN   map[asnum.ASN]*Net
	members map[int][]asnum.ASN // org ID -> ASNs
	// shared lists the IDs of the nets holding each ASN that more than
	// one net holds, so the index can move to another holder when the
	// indexed net leaves. An ASN held by one net has no entry.
	shared map[asnum.ASN][]int
}

// NewSnapshot returns an empty snapshot for the given date.
func NewSnapshot(date string) *Snapshot {
	return &Snapshot{
		Date:    date,
		orgs:    make(map[int]*Org),
		nets:    make(map[int]*Net),
		byASN:   make(map[asnum.ASN]*Net),
		members: make(map[int][]asnum.ASN),
		shared:  make(map[asnum.ASN][]int),
	}
}

// AddOrg inserts or replaces an organization object.
func (s *Snapshot) AddOrg(o Org) {
	cp := o
	s.orgs[o.ID] = &cp
}

// AddNet inserts or replaces a network object, indexing it by ASN and
// registering org membership. A stub org is created if unknown. The
// ASN index points at the net added last; when a replacement moves the
// indexed net off an ASN other nets still hold, the index moves to the
// highest-ID holder, the net a Write→Parse round trip indexes.
func (s *Snapshot) AddNet(n Net) {
	if prev, ok := s.nets[n.ID]; ok {
		s.dropHolder(prev)
		old := s.members[prev.OrgID]
		for i, a := range old {
			if a == prev.ASN {
				s.members[prev.OrgID] = append(old[:i], old[i+1:]...)
				break
			}
		}
	}
	cp := n
	s.nets[n.ID] = &cp
	if held := s.byASN[n.ASN]; held != nil {
		if s.shared[n.ASN] == nil {
			s.shared[n.ASN] = []int{held.ID}
		}
		s.shared[n.ASN] = append(s.shared[n.ASN], n.ID)
	}
	s.byASN[n.ASN] = &cp
	if _, ok := s.orgs[n.OrgID]; !ok {
		s.orgs[n.OrgID] = &Org{ID: n.OrgID}
	}
	s.members[n.OrgID] = append(s.members[n.OrgID], n.ASN)
}

// dropHolder removes net prev from its ASN's holders before prev is
// replaced.
func (s *Snapshot) dropHolder(prev *Net) {
	holders := s.shared[prev.ASN]
	if holders == nil {
		delete(s.byASN, prev.ASN)
		return
	}
	holders = slices.DeleteFunc(holders, func(id int) bool { return id == prev.ID })
	if s.byASN[prev.ASN] == prev {
		s.byASN[prev.ASN] = s.nets[slices.Max(holders)]
	}
	if len(holders) == 1 {
		delete(s.shared, prev.ASN)
	} else {
		s.shared[prev.ASN] = holders
	}
}

// NumOrgs returns the number of organization objects.
func (s *Snapshot) NumOrgs() int { return len(s.orgs) }

// NumNets returns the number of network objects.
func (s *Snapshot) NumNets() int { return len(s.nets) }

// Org returns the organization with the given primary key, or nil.
func (s *Snapshot) Org(id int) *Org { return s.orgs[id] }

// Net returns the network with the given primary key, or nil.
func (s *Snapshot) Net(id int) *Net { return s.nets[id] }

// NetByASN returns the network registered for a, or nil.
func (s *Snapshot) NetByASN(a asnum.ASN) *Net { return s.byASN[a] }

// OrgOf returns the organization owning ASN a, or nil.
func (s *Snapshot) OrgOf(a asnum.ASN) *Org {
	n := s.byASN[a]
	if n == nil {
		return nil
	}
	return s.orgs[n.OrgID]
}

// Members returns the sorted ASNs registered under org id.
func (s *Snapshot) Members(id int) []asnum.ASN {
	m := append([]asnum.ASN(nil), s.members[id]...)
	asnum.Sort(m)
	return m
}

// Nets returns all network objects ordered by ASN, nets sharing an ASN
// by ID.
func (s *Snapshot) Nets() []*Net {
	out := make([]*Net, 0, len(s.nets))
	for _, n := range s.nets {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ASN != out[j].ASN {
			return out[i].ASN < out[j].ASN
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Orgs returns all organization objects ordered by ID.
func (s *Snapshot) Orgs() []*Org {
	out := make([]*Org, 0, len(s.orgs))
	for _, o := range s.orgs {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// OrgIDs returns all org primary keys, sorted.
func (s *Snapshot) OrgIDs() []int {
	out := make([]int, 0, len(s.orgs))
	for id := range s.orgs {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// SiblingSets converts org memberships into sibling sets (the OID_P
// feature). Every org with at least one network yields a set.
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
			Source:   cluster.FeatureOIDP,
			Evidence: asnum.PDBOrg(id).String(),
		})
	}
	return out
}

// NetsWithText returns all nets with a non-empty notes or aka field,
// ordered by ASN. This is the corpus fed to the NER input filter.
func (s *Snapshot) NetsWithText() []*Net {
	var out []*Net
	for _, n := range s.Nets() {
		if n.HasText() {
			out = append(out, n)
		}
	}
	return out
}

// NetsWithWebsite returns all nets with a non-empty website field,
// ordered by ASN. This is the corpus fed to the web crawler.
func (s *Snapshot) NetsWithWebsite() []*Net {
	var out []*Net
	for _, n := range s.Nets() {
		if n.Website != "" {
			out = append(out, n)
		}
	}
	return out
}
