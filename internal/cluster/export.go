package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/nu-aqualab/borges/internal/asnum"
)

// exportRecord is the on-disk JSON-lines form of one organization:
//
//	{"org":0,"name":"Lumen","asns":[209,3356,3549],"features":["OID_W","OID_P","R&R"]}
type exportRecord struct {
	Org      int      `json:"org"`
	Name     string   `json:"name,omitempty"`
	ASNs     []uint32 `json:"asns"`
	Features []string `json:"features,omitempty"`
}

// WriteJSONL serializes a mapping as JSON lines, one organization per
// line, in the mapping's deterministic cluster order.
func WriteJSONL(w io.Writer, m *Mapping) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range m.Clusters {
		c := &m.Clusters[i]
		rec := exportRecord{Org: c.ID, Name: c.Name, ASNs: make([]uint32, len(c.ASNs))}
		for j, a := range c.ASNs {
			rec.ASNs[j] = uint32(a)
		}
		for f := 0; f < NumFeatures; f++ {
			if c.Features[f] {
				rec.Features = append(rec.Features, Feature(f).String())
			}
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("cluster: write org %d: %w", c.ID, err)
		}
	}
	return bw.Flush()
}

// featureByName inverts Feature.String for parsing.
func featureByName(s string) (Feature, error) {
	for f := 0; f < NumFeatures; f++ {
		if Feature(f).String() == s {
			return Feature(f), nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown feature %q", s)
}

// ReadJSONL parses a mapping previously written with WriteJSONL. The
// loaded mapping reproduces membership, names, and feature provenance;
// cluster IDs are reassigned in deterministic order.
func ReadJSONL(r io.Reader) (*Mapping, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	b := NewBuilder()
	type pending struct {
		name     string
		features []Feature
		first    asnum.ASN
	}
	var pendings []pending
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec exportRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("cluster: line %d: %w", line, err)
		}
		if len(rec.ASNs) == 0 {
			return nil, fmt.Errorf("cluster: line %d: organization without members", line)
		}
		asns := make([]asnum.ASN, len(rec.ASNs))
		for i, a := range rec.ASNs {
			asns[i] = asnum.ASN(a)
		}
		p := pending{name: rec.Name, first: asns[0]}
		for _, fs := range rec.Features {
			f, err := featureByName(fs)
			if err != nil {
				return nil, fmt.Errorf("cluster: line %d: %w", line, err)
			}
			p.features = append(p.features, f)
		}
		// Register membership under the first recorded feature (OID_W
		// when none were recorded); the first member alone carries every
		// recorded feature to the organization.
		src := FeatureOIDW
		if len(p.features) > 0 {
			src = p.features[0]
		}
		b.Add(SiblingSet{ASNs: asns, Source: src})
		for _, f := range p.features {
			b.Add(SiblingSet{ASNs: asns[:1], Source: f})
		}
		pendings = append(pendings, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cluster: scan: %w", err)
	}
	names := make(map[asnum.ASN]string, len(pendings))
	for _, p := range pendings {
		if p.name != "" {
			names[p.first] = p.name
		}
	}
	m := b.Build(func(members []asnum.ASN) string {
		for _, a := range members {
			if n, ok := names[a]; ok {
				return n
			}
		}
		return ""
	})
	return m, nil
}
