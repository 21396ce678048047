package serve

import (
	"reflect"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/orgfactor"
)

// testMapping builds a small mapping with known structure:
//
//	Lumen Technologies  {209, 3356, 3549}  OID_W + R&R
//	Claro Chile         {27995}            OID_W
//	Claro Puerto Rico   {10396, 14638}     OID_W + F
//	(unnamed)           {63999 singleton universe entry}
func testMapping(t testing.TB) *cluster.Mapping {
	t.Helper()
	b := cluster.NewBuilder()
	b.AddUniverse(209, 3356, 3549, 27995, 10396, 14638, 63999)
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{209, 3356, 3549}, Source: cluster.FeatureOIDW})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{209, 3356}, Source: cluster.FeatureRR})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{27995}, Source: cluster.FeatureOIDW})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{10396, 14638}, Source: cluster.FeatureOIDW})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{10396, 14638}, Source: cluster.FeatureFavicon})
	names := map[asnum.ASN]string{
		3356:  "Lumen Technologies",
		27995: "Claro Chile",
		10396: "Claro Puerto Rico",
	}
	return b.Build(func(members []asnum.ASN) string {
		for _, a := range members {
			if n, ok := names[a]; ok {
				return n
			}
		}
		return ""
	})
}

func mustSnapshot(t testing.TB, m *cluster.Mapping) *Snapshot {
	t.Helper()
	s, err := NewSnapshot(m, "test")
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	return s
}

func TestNewSnapshotRejectsNilAndEmpty(t *testing.T) {
	if _, err := NewSnapshot(nil, "x"); err == nil {
		t.Fatal("nil mapping accepted")
	}
	if _, err := NewSnapshot(&cluster.Mapping{}, "x"); err == nil {
		t.Fatal("empty mapping accepted")
	}
}

func TestSnapshotLookup(t *testing.T) {
	s := mustSnapshot(t, testMapping(t))
	c, ok := s.Lookup(3356)
	if !ok || c.Name != "Lumen Technologies" {
		t.Fatalf("Lookup(3356) = %+v, want Lumen", c)
	}
	want := []asnum.ASN{209, 3356, 3549}
	if !reflect.DeepEqual(c.ASNs, want) {
		t.Fatalf("siblings = %v, want %v", c.ASNs, want)
	}
	if got := FeatureNames(&c); !reflect.DeepEqual(got, []string{"OID_W", "R&R"}) {
		t.Fatalf("features = %v, want [OID_W R&R]", got)
	}
	if _, ok := s.Lookup(4242424); ok {
		t.Fatal("unmapped ASN returned a cluster")
	}
}

func TestSnapshotOrg(t *testing.T) {
	s := mustSnapshot(t, testMapping(t))
	c, ok := s.Lookup(27995)
	if !ok {
		t.Fatal("Lookup(27995) found nothing")
	}
	if got, ok := s.Org(c.ID); !ok || !reflect.DeepEqual(got, c) {
		t.Fatalf("Org(%d) = %+v, want %+v", c.ID, got, c)
	}
	if _, ok := s.Org(-1); ok {
		t.Fatal("out-of-range org ID returned a cluster")
	}
	if _, ok := s.Org(1_000_000); ok {
		t.Fatal("out-of-range org ID returned a cluster")
	}
}

func TestSnapshotSearch(t *testing.T) {
	s := mustSnapshot(t, testMapping(t))
	cases := []struct {
		query string
		limit int
		want  []string
	}{
		{"claro", 0, []string{"Claro Chile", "Claro Puerto Rico"}},
		{"CLARO", 0, []string{"Claro Chile", "Claro Puerto Rico"}},
		{"lum", 0, []string{"Lumen Technologies"}},
		{"claro chile", 0, []string{"Claro Chile"}},
		{"claro", 1, nil}, // limit truncates; exact survivor order-dependent
		{"nosuchorg", 0, nil},
		{"", 0, nil},
	}
	for _, tc := range cases {
		hits := s.Search(tc.query, tc.limit)
		var names []string
		for _, c := range hits {
			names = append(names, c.Name)
		}
		if tc.query == "claro" && tc.limit == 1 {
			if len(hits) != 1 {
				t.Errorf("Search(%q, 1) returned %d hits, want 1", tc.query, len(hits))
			}
			continue
		}
		// Cluster-ID order is deterministic but not name order; compare
		// as sets.
		if len(names) != len(tc.want) {
			t.Errorf("Search(%q) = %v, want %v", tc.query, names, tc.want)
			continue
		}
		got := make(map[string]bool)
		for _, n := range names {
			got[n] = true
		}
		for _, w := range tc.want {
			if !got[w] {
				t.Errorf("Search(%q) = %v, missing %q", tc.query, names, w)
			}
		}
	}
}

func TestSnapshotStats(t *testing.T) {
	m := testMapping(t)
	s := mustSnapshot(t, m)
	st := s.Stats()
	if st.Orgs != m.NumOrgs() || st.ASNs != m.NumASNs() {
		t.Fatalf("stats counts = %d/%d, want %d/%d", st.Orgs, st.ASNs, m.NumOrgs(), m.NumASNs())
	}
	wantTheta, err := orgfactor.Theta(m)
	if err != nil {
		t.Fatal(err)
	}
	if st.Theta != wantTheta {
		t.Fatalf("theta = %v, want %v", st.Theta, wantTheta)
	}
	if st.MultiASOrgs != 2 {
		t.Fatalf("MultiASOrgs = %d, want 2", st.MultiASOrgs)
	}
	if st.LargestOrg != 3 {
		t.Fatalf("LargestOrg = %d, want 3", st.LargestOrg)
	}
	total := 0
	for _, b := range st.SizeHistogram {
		total += b.Orgs
	}
	if total != st.Orgs {
		t.Fatalf("histogram sums to %d orgs, want %d", total, st.Orgs)
	}
	// 4 orgs: sizes 3, 2, 1, 1 → buckets "1":2, "2":1, "3-4":1.
	want := []SizeBucket{{Lo: 1, Hi: 1, Orgs: 2}, {Lo: 2, Hi: 2, Orgs: 1}, {Lo: 3, Hi: 4, Orgs: 1}}
	if !reflect.DeepEqual(st.SizeHistogram, want) {
		t.Fatalf("histogram = %+v, want %+v", st.SizeHistogram, want)
	}
}

func TestSizeBucketLabel(t *testing.T) {
	for _, tc := range []struct {
		b    SizeBucket
		want string
	}{
		{SizeBucket{Lo: 1, Hi: 1}, "1"},
		{SizeBucket{Lo: 3, Hi: 4}, "3-4"},
		{SizeBucket{Lo: 17, Hi: 32}, "17-32"},
	} {
		if got := tc.b.Label(); got != tc.want {
			t.Errorf("Label(%+v) = %q, want %q", tc.b, got, tc.want)
		}
	}
}

func TestSnapshotMetadata(t *testing.T) {
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	s, err := newSnapshotAt(testMapping(t), "corpus.jsonl", Health{}, now)
	if err != nil {
		t.Fatal(err)
	}
	if s.Source() != "corpus.jsonl" {
		t.Fatalf("Source = %q", s.Source())
	}
	if !s.LoadedAt().Equal(now) {
		t.Fatalf("LoadedAt = %v, want %v", s.LoadedAt(), now)
	}
}

// tokensOf lists the tokens nextToken finds in an already-lowercased
// name, in order.
func tokensOf(lower string) []string {
	var out []string
	for tok, rest := nextToken(lower); tok != ""; tok, rest = nextToken(rest) {
		out = append(out, tok)
	}
	return out
}

func TestTokenize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"lumen technologies", []string{"lumen", "technologies"}},
		{"claro (chile)", []string{"claro", "chile"}},
		{"edg.io", []string{"edg", "io"}},
		{"", nil},
		{"--", nil},
	} {
		if got := tokensOf(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("nextToken over %q found %v, want %v", tc.in, got, tc.want)
		}
	}
}
