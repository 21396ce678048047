package peeringdb

import (
	"bytes"
	"strings"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
)

const sample = `{
  "org": {"data": [
    {"id": 907, "name": "Lumen", "website": "https://www.lumen.com", "country": "US"},
    {"id": 17, "name": "Edgio", "website": "https://edg.io"}
  ]},
  "net": {"data": [
    {"id": 1, "org_id": 907, "asn": 3356, "name": "Lumen AS3356", "aka": "Level 3, CenturyLink", "website": "https://www.lumen.com"},
    {"id": 2, "org_id": 907, "asn": 209, "name": "CenturyLink", "website": "https://www.lumen.com"},
    {"id": 3, "org_id": 17, "asn": 15133, "name": "Edgecast", "notes": "Now part of Edgio with AS22822", "website": "https://edg.io"},
    {"id": 4, "org_id": 17, "asn": 22822, "name": "Limelight", "website": "https://www.llnw.com"}
  ]}
}`

func parseSample(t *testing.T) *Snapshot {
	t.Helper()
	s, err := Parse(strings.NewReader(sample), "20240724")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParse(t *testing.T) {
	s := parseSample(t)
	if s.NumOrgs() != 2 || s.NumNets() != 4 {
		t.Fatalf("got %d orgs / %d nets, want 2/4", s.NumOrgs(), s.NumNets())
	}
	n := s.NetByASN(3356)
	if n == nil || n.Aka != "Level 3, CenturyLink" {
		t.Fatalf("NetByASN(3356) = %+v", n)
	}
	if got := s.OrgOf(22822); got == nil || got.Name != "Edgio" {
		t.Fatalf("OrgOf(22822) = %+v", got)
	}
	if got := s.Members(907); len(got) != 2 || got[0] != 209 || got[1] != 3356 {
		t.Fatalf("Members(907) = %v", got)
	}
	if s.Net(3) == nil || s.Net(3).ASN != 15133 {
		t.Errorf("Net(3) = %+v", s.Net(3))
	}
	if s.OrgOf(99999) != nil {
		t.Error("OrgOf(unknown) should be nil")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"net":{"data":[{"id":0,"asn":1,"org_id":1}]}}`,
		`{"net":{"data":[{"id":1,"asn":0,"org_id":1}]}}`,
		`{"org":{"data":[{"id":-5}]}}`,
		`{"net":{"data":[{"id":1,"asn":1}]}}`,
		`{"net":{"data":[{"id":1,"asn":1,"org_id":-2}]}}`,
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c), "x"); err == nil {
			t.Errorf("Parse(%q) should fail", c)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	s1 := parseSample(t)
	var buf bytes.Buffer
	if err := Write(&buf, s1); err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(bytes.NewReader(buf.Bytes()), "20240724")
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumOrgs() != s1.NumOrgs() || s2.NumNets() != s1.NumNets() {
		t.Fatal("round trip changed counts")
	}
	for _, n := range s1.Nets() {
		m := s2.NetByASN(n.ASN)
		if m == nil || m.Notes != n.Notes || m.Website != n.Website || m.OrgID != n.OrgID {
			t.Errorf("net %v changed in round trip", n.ASN)
		}
	}
	var buf2 bytes.Buffer
	if err := Write(&buf2, s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("Write output is not deterministic")
	}
}

func TestSiblingSets(t *testing.T) {
	s := parseSample(t)
	sets := s.SiblingSets()
	if len(sets) != 2 {
		t.Fatalf("got %d sets, want 2", len(sets))
	}
	// Org 17 first (sorted by ID).
	if sets[0].Evidence != "OID_P:17" || len(sets[0].ASNs) != 2 {
		t.Errorf("first set = %+v", sets[0])
	}
	for _, set := range sets {
		if set.Source != cluster.FeatureOIDP {
			t.Errorf("source = %v", set.Source)
		}
	}
}

func TestTextAndWebsiteFilters(t *testing.T) {
	s := parseSample(t)
	text := s.NetsWithText()
	if len(text) != 2 { // 3356 (aka) and 15133 (notes)
		t.Fatalf("NetsWithText = %d nets, want 2", len(text))
	}
	if text[0].ASN != 3356 || text[1].ASN != 15133 {
		t.Errorf("NetsWithText order = %v, %v", text[0].ASN, text[1].ASN)
	}
	web := s.NetsWithWebsite()
	if len(web) != 4 {
		t.Fatalf("NetsWithWebsite = %d nets, want 4", len(web))
	}
}

func TestAddNetReplace(t *testing.T) {
	s := NewSnapshot("x")
	s.AddNet(Net{ID: 1, OrgID: 5, ASN: 100})
	s.AddNet(Net{ID: 1, OrgID: 6, ASN: 101}) // same PK, new org+ASN
	if s.NetByASN(100) != nil {
		t.Error("stale ASN index after replacement")
	}
	if len(s.Members(5)) != 0 {
		t.Errorf("stale membership: %v", s.Members(5))
	}
	if got := s.Members(6); len(got) != 1 || got[0] != 101 {
		t.Errorf("Members(6) = %v", got)
	}
	if s.Org(5) == nil || s.Org(6) == nil {
		t.Error("stub orgs should exist")
	}
}

// Two nets may share an ASN. Nets, and so Write, orders them by ID,
// whatever the map's iteration order.
func TestNetsSharedASNOrderedByID(t *testing.T) {
	s, err := Parse(strings.NewReader(`{"net": {"data": [
		{"id": 2, "org_id": 6, "asn": 100, "name": "Second"},
		{"id": 1, "org_id": 5, "asn": 100, "name": "First"},
		{"id": 3, "org_id": 5, "asn": 50, "name": "Lowest ASN"}
	]}}`), "x")
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := Write(&first, s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		var ids []int
		for _, n := range s.Nets() {
			ids = append(ids, n.ID)
		}
		if ids[0] != 3 || ids[1] != 1 || ids[2] != 2 {
			t.Fatalf("Nets() IDs = %v, want [3 1 2]", ids)
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), first.Bytes()) {
			t.Fatalf("write %d differs from the first:\n%s\n%s", i, buf.String(), first.String())
		}
	}
}

// Moving one of two nets sharing an ASN to another ASN leaves the ASN
// indexed to the net that still holds it.
func TestAddNetMoveKeepsSharedASN(t *testing.T) {
	s := NewSnapshot("x")
	s.AddNet(Net{ID: 1, OrgID: 5, ASN: 100})
	s.AddNet(Net{ID: 2, OrgID: 6, ASN: 100})
	s.AddNet(Net{ID: 1, OrgID: 5, ASN: 200})
	if n := s.NetByASN(100); n == nil || n.ID != 2 {
		t.Fatalf("NetByASN(100) = %+v, want net 2", n)
	}
	if o := s.OrgOf(100); o == nil || o.ID != 6 {
		t.Fatalf("OrgOf(100) = %+v, want org 6", o)
	}
	if n := s.NetByASN(200); n == nil || n.ID != 1 {
		t.Fatalf("NetByASN(200) = %+v, want net 1", n)
	}
	if got := s.Members(5); len(got) != 1 || got[0] != 200 {
		t.Errorf("Members(5) = %v, want [AS200]", got)
	}
	if got := s.Members(6); len(got) != 1 || got[0] != 100 {
		t.Errorf("Members(6) = %v, want [AS100]", got)
	}
}

// Moving the net the ASN index points at off an ASN other nets still
// hold re-points the index at the highest-ID remaining holder, the net
// a Write→Parse round trip indexes.
func TestAddNetMoveIndexedSharedASN(t *testing.T) {
	s := NewSnapshot("x")
	s.AddNet(Net{ID: 1, OrgID: 5, ASN: 100})
	s.AddNet(Net{ID: 2, OrgID: 6, ASN: 100})
	if n := s.NetByASN(100); n == nil || n.ID != 2 {
		t.Fatalf("NetByASN(100) = %+v, want net 2", n)
	}
	s.AddNet(Net{ID: 2, OrgID: 6, ASN: 300})
	if n := s.NetByASN(100); n == nil || n.ID != 1 {
		t.Fatalf("NetByASN(100) = %+v, want net 1", n)
	}
	if o := s.OrgOf(100); o == nil || o.ID != 5 {
		t.Fatalf("OrgOf(100) = %+v, want org 5", o)
	}
	if got := s.Members(5); len(got) != 1 || got[0] != 100 {
		t.Errorf("Members(5) = %v, want [AS100]", got)
	}
	if n := s.NetByASN(300); n == nil || n.ID != 2 {
		t.Fatalf("NetByASN(300) = %+v, want net 2", n)
	}

	// Three holders, added out of ID order: the index follows the last
	// add, then the highest ID left.
	s.AddNet(Net{ID: 7, OrgID: 6, ASN: 100})
	s.AddNet(Net{ID: 4, OrgID: 5, ASN: 100})
	s.AddNet(Net{ID: 4, OrgID: 5, ASN: 400})
	if n := s.NetByASN(100); n == nil || n.ID != 7 {
		t.Fatalf("NetByASN(100) = %+v, want net 7", n)
	}
	s.AddNet(Net{ID: 7, OrgID: 6, ASN: 500})
	s.AddNet(Net{ID: 1, OrgID: 5, ASN: 600})
	if n := s.NetByASN(100); n != nil {
		t.Fatalf("NetByASN(100) = %+v after its last holder moved, want nil", n)
	}

	// Every index entry matches the one a round trip builds.
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf, "x")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []asnum.ASN{100, 300, 400, 500, 600} {
		got, want := s.NetByASN(a), back.NetByASN(a)
		if (got == nil) != (want == nil) || got != nil && got.ID != want.ID {
			t.Errorf("NetByASN(%d) = %+v, round trip indexes %+v", a, got, want)
		}
	}
}

func TestHasText(t *testing.T) {
	cases := []struct {
		n    Net
		want bool
	}{
		{Net{}, false},
		{Net{Notes: "x"}, true},
		{Net{Aka: "y"}, true},
		{Net{Notes: "x", Aka: "y"}, true},
	}
	for _, c := range cases {
		if c.n.HasText() != c.want {
			t.Errorf("HasText(%+v) = %v", c.n, !c.want)
		}
	}
}
