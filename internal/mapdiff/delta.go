package mapdiff

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
)

// Delta is the machine-applicable form of a mapping transition: the
// organizations to remove from a base mapping and the organizations
// to add, with everything untouched left implicit. Where Report
// narrates a transition for humans (merges, splits, reshuffles), a
// Delta is the minimal edit script an incremental reload applies —
// a changed organization appears as one removal plus one addition.
type Delta struct {
	// Removed holds the full member list of each base organization
	// that does not survive unchanged. Carrying the whole list (not
	// just an identifying member) lets the applier verify the delta
	// matches its base and fail loudly on a mismatch.
	Removed [][]asnum.ASN
	// Added holds each organization present only in the new mapping:
	// members, display name, and feature provenance. IDs are not
	// recorded — the applier re-derives canonical IDs, so a patched
	// mapping is identical to a from-scratch build.
	Added []cluster.Cluster
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool { return len(d.Removed) == 0 && len(d.Added) == 0 }

// Summary renders the headline edit counts.
func (d *Delta) Summary() string {
	return fmt.Sprintf("removed=%d added=%d", len(d.Removed), len(d.Added))
}

// deltaWire is the single-document JSON form of a Delta, used by the
// /v1/watch event stream and the Go client. Unlike the JSONL file
// format (WriteDelta/ReadDelta), it is one object, preserves features
// exactly (no OID_W defaulting on decode), and still omits cluster
// IDs — the applier re-derives them.
type deltaWire struct {
	Removed [][]uint32       `json:"removed"`
	Added   []deltaWireAdded `json:"added"`
}

type deltaWireAdded struct {
	Name     string   `json:"name,omitempty"`
	ASNs     []uint32 `json:"asns"`
	Features []string `json:"features,omitempty"`
}

// MarshalJSON renders the delta as a single JSON object with explicit
// (possibly empty) removed/added arrays, so an empty delta is
// `{"removed":[],"added":[]}` rather than nulls.
func (d *Delta) MarshalJSON() ([]byte, error) {
	w := deltaWire{
		Removed: make([][]uint32, len(d.Removed)),
		Added:   make([]deltaWireAdded, len(d.Added)),
	}
	for i, members := range d.Removed {
		row := make([]uint32, len(members))
		for j, a := range members {
			row[j] = uint32(a)
		}
		w.Removed[i] = row
	}
	for i := range d.Added {
		c := &d.Added[i]
		rec := deltaWireAdded{Name: c.Name, ASNs: make([]uint32, len(c.ASNs))}
		for j, a := range c.ASNs {
			rec.ASNs[j] = uint32(a)
		}
		for f := 0; f < cluster.NumFeatures; f++ {
			if c.Features[f] {
				rec.Features = append(rec.Features, cluster.Feature(f).String())
			}
		}
		w.Added[i] = rec
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses the MarshalJSON form. Decoding is exact — no
// sorting, deduplication, or feature defaulting — so a marshal/
// unmarshal round-trip is deep-equal to the original delta (IDs
// excepted: they are never on the wire and decode as zero).
func (d *Delta) UnmarshalJSON(data []byte) error {
	var w deltaWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("mapdiff: delta json: %w", err)
	}
	*d = Delta{}
	for _, row := range w.Removed {
		members := make([]asnum.ASN, len(row))
		for j, a := range row {
			members[j] = asnum.ASN(a)
		}
		d.Removed = append(d.Removed, members)
	}
	for _, rec := range w.Added {
		c := cluster.Cluster{Name: rec.Name, ASNs: make([]asnum.ASN, len(rec.ASNs))}
		for j, a := range rec.ASNs {
			c.ASNs[j] = asnum.ASN(a)
		}
		for _, fs := range rec.Features {
			f, err := featureByName(fs)
			if err != nil {
				return fmt.Errorf("mapdiff: delta json: %w", err)
			}
			c.Features[f] = true
		}
		d.Added = append(d.Added, c)
	}
	return nil
}

// Orgs is the view of a mapping a delta is computed over: its
// organizations in canonical order (descending size, ties broken by
// the smallest member), as Build produces them and cluster.Restore
// checks them. Both *cluster.Mapping and a serving snapshot satisfy
// it, so two snapshots can be diffed without building a mapping from
// either.
type Orgs interface {
	NumOrgs() int
	OrgAt(i int) cluster.Cluster
}

// ComputeDelta returns the edit script transforming old into new:
// every old organization without an identical counterpart in new is
// removed, every new organization without an identical counterpart in
// old is added. Identity covers members, name, and features — a
// renamed organization with unchanged membership is still an edit,
// because its serving artifacts (rendered bodies, search tokens)
// change.
func ComputeDelta(old, new *cluster.Mapping) *Delta { return Diff(old, new) }

// Diff is ComputeDelta over any two views in canonical order. Within
// one mapping the pair (size, smallest member) identifies an
// organization, so one merge walk in canonical order meets every pair
// of organizations that could be identical: a pair that compares equal
// under cluster.CompareCanonical is unchanged iff its members, name and
// features are equal. Removals come out in old's order and additions
// in new's. The delta copies what it keeps, so holding it (a watch ring
// does) keeps neither side reachable.
func Diff(old, new Orgs) *Delta {
	d := &Delta{}
	i, j, nOld, nNew := 0, 0, old.NumOrgs(), new.NumOrgs()
	for i < nOld || j < nNew {
		switch {
		case j == nNew:
			d.Removed = append(d.Removed, old.OrgAt(i).ASNs)
			i++
		case i == nOld:
			d.Added = append(d.Added, new.OrgAt(j))
			j++
		default:
			oc, nc := old.OrgAt(i), new.OrgAt(j)
			switch cmp := cluster.CompareCanonical(oc.ASNs, nc.ASNs); {
			case cmp < 0:
				d.Removed = append(d.Removed, oc.ASNs)
				i++
			case cmp > 0:
				d.Added = append(d.Added, nc)
				j++
			default:
				if oc.Name != nc.Name || oc.Features != nc.Features || !slices.Equal(oc.ASNs, nc.ASNs) {
					d.Removed = append(d.Removed, oc.ASNs)
					d.Added = append(d.Added, nc)
				}
				i, j = i+1, j+1
			}
		}
	}
	d.own()
	return d
}

// own copies the delta's members and names, so the delta no longer
// aliases the mappings it came from.
func (d *Delta) own() {
	for k := range d.Removed {
		d.Removed[k] = slices.Clone(d.Removed[k])
	}
	for k := range d.Added {
		d.Added[k].ASNs = slices.Clone(d.Added[k].ASNs)
		d.Added[k].Name = strings.Clone(d.Added[k].Name)
	}
}

// deltaRecord is the on-disk JSON-lines form of one delta edit:
//
//	{"op":"del","asns":[3356,3549]}
//	{"op":"add","name":"Lumen","asns":[209,3356,3549],"features":["OID_W"]}
type deltaRecord struct {
	Op       string   `json:"op"`
	Name     string   `json:"name,omitempty"`
	ASNs     []uint32 `json:"asns"`
	Features []string `json:"features,omitempty"`
}

// WriteDelta serializes a delta as JSON lines, removals first.
func WriteDelta(w io.Writer, d *Delta) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, members := range d.Removed {
		rec := deltaRecord{Op: "del", ASNs: make([]uint32, len(members))}
		for i, a := range members {
			rec.ASNs[i] = uint32(a)
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("mapdiff: write delta: %w", err)
		}
	}
	for i := range d.Added {
		c := &d.Added[i]
		rec := deltaRecord{Op: "add", Name: c.Name, ASNs: make([]uint32, len(c.ASNs))}
		for j, a := range c.ASNs {
			rec.ASNs[j] = uint32(a)
		}
		for f := 0; f < cluster.NumFeatures; f++ {
			if c.Features[f] {
				rec.Features = append(rec.Features, cluster.Feature(f).String())
			}
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("mapdiff: write delta: %w", err)
		}
	}
	return bw.Flush()
}

// ReadDelta parses a delta written with WriteDelta. Added records
// with no recorded features default to OID_W, matching how
// cluster.ReadJSONL treats feature-less mapping records, so applying
// a hand-written delta and rebuilding from the equivalent full file
// agree on provenance bits.
func ReadDelta(r io.Reader) (*Delta, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	d := &Delta{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec deltaRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("mapdiff: delta line %d: %w", line, err)
		}
		if len(rec.ASNs) == 0 {
			return nil, fmt.Errorf("mapdiff: delta line %d: %s without members", line, rec.Op)
		}
		asns := make([]asnum.ASN, len(rec.ASNs))
		for i, a := range rec.ASNs {
			asns[i] = asnum.ASN(a)
		}
		asnum.Sort(asns)
		// Collapse duplicates the way a union-find replay would.
		uniq := asns[:1]
		for _, a := range asns[1:] {
			if a != uniq[len(uniq)-1] {
				uniq = append(uniq, a)
			}
		}
		asns = uniq
		switch rec.Op {
		case "del":
			d.Removed = append(d.Removed, asns)
		case "add":
			c := cluster.Cluster{Name: rec.Name, ASNs: asns}
			if len(rec.Features) == 0 {
				c.Features[cluster.FeatureOIDW] = true
			}
			for _, fs := range rec.Features {
				f, err := featureByName(fs)
				if err != nil {
					return nil, fmt.Errorf("mapdiff: delta line %d: %w", line, err)
				}
				c.Features[f] = true
			}
			d.Added = append(d.Added, c)
		default:
			return nil, fmt.Errorf("mapdiff: delta line %d: unknown op %q", line, rec.Op)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mapdiff: delta scan: %w", err)
	}
	return d, nil
}

// featureByName inverts cluster.Feature.String for parsing.
func featureByName(s string) (cluster.Feature, error) {
	for f := 0; f < cluster.NumFeatures; f++ {
		if cluster.Feature(f).String() == s {
			return cluster.Feature(f), nil
		}
	}
	return 0, fmt.Errorf("unknown feature %q", s)
}
