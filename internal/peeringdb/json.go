package peeringdb

import (
	"encoding/json"
	"fmt"
	"io"
)

// dump mirrors the PeeringDB public API dump layout:
//
//	{"org": {"data": [...]}, "net": {"data": [...]}}
type dump struct {
	Org  table[Org] `json:"org"`
	Net  table[Net] `json:"net"`
	Meta *meta      `json:"meta,omitempty"`
}

type table[T any] struct {
	Data []T `json:"data"`
}

type meta struct {
	Generated string `json:"generated,omitempty"`
}

// Parse reads a PeeringDB API dump into a Snapshot.
func Parse(r io.Reader, date string) (*Snapshot, error) {
	var d dump
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("peeringdb: decode: %w", err)
	}
	s := NewSnapshot(date)
	for _, o := range d.Org.Data {
		if o.ID <= 0 {
			return nil, fmt.Errorf("peeringdb: org with non-positive id %d", o.ID)
		}
		s.AddOrg(o)
	}
	for _, n := range d.Net.Data {
		if n.ID <= 0 {
			return nil, fmt.Errorf("peeringdb: net with non-positive id %d", n.ID)
		}
		if n.ASN == 0 {
			return nil, fmt.Errorf("peeringdb: net %d has no ASN", n.ID)
		}
		// A stub org with this ID would not parse back.
		if n.OrgID <= 0 {
			return nil, fmt.Errorf("peeringdb: net %d has non-positive org_id %d", n.ID, n.OrgID)
		}
		s.AddNet(n)
	}
	return s, nil
}

// Write serializes the snapshot in PeeringDB API dump form with
// deterministic ordering (orgs by ID, nets by ASN, then by ID).
func Write(w io.Writer, s *Snapshot) error {
	d := dump{Meta: &meta{Generated: s.Date}}
	for _, o := range s.Orgs() {
		d.Org.Data = append(d.Org.Data, *o)
	}
	for _, n := range s.Nets() {
		d.Net.Data = append(d.Net.Data, *n)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&d); err != nil {
		return fmt.Errorf("peeringdb: encode: %w", err)
	}
	return nil
}
