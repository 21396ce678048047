package cluster

import (
	"slices"
	"strings"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
)

func restoreFixture(t *testing.T) *Mapping {
	t.Helper()
	b := NewBuilder()
	b.AddUniverse(1, 2, 3, 10, 11, 20, 30, 31, 32, 33)
	b.Add(SiblingSet{ASNs: []asnum.ASN{1, 2, 3}, Source: FeatureOIDW})
	b.Add(SiblingSet{ASNs: []asnum.ASN{10, 11}, Source: FeatureRR})
	b.Add(SiblingSet{ASNs: []asnum.ASN{30, 31}, Source: FeatureOIDP})
	b.Add(SiblingSet{ASNs: []asnum.ASN{31, 32, 33}, Source: FeatureFavicon})
	return b.Build(func(members []asnum.ASN) string {
		return "Org " + members[0].String()
	})
}

// flatten lays clusters out as Restore reads them: one member pool
// and its offsets.
func flatten(cs []Cluster) ([]asnum.ASN, []uint32) {
	var pool []asnum.ASN
	off := []uint32{0}
	for _, c := range cs {
		pool = append(pool, c.ASNs...)
		off = append(off, uint32(len(pool)))
	}
	return pool, off
}

func TestRestoreInvertsRawIndex(t *testing.T) {
	m := restoreFixture(t)
	keys, vals := m.Index().Keys(), m.Index().Vals()
	pool, off := flatten(m.Clusters)
	idx, err := Restore(pool, off, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	got := NewMapping(m.Clusters, idx)
	if got.NumOrgs() != m.NumOrgs() || got.NumASNs() != m.NumASNs() {
		t.Fatalf("restored %d/%d, want %d/%d",
			got.NumOrgs(), got.NumASNs(), m.NumOrgs(), m.NumASNs())
	}
	for _, a := range keys {
		want := m.ClusterOf(a)
		have := got.ClusterOf(a)
		if have == nil || have.ID != want.ID || have.Name != want.Name {
			t.Fatalf("ClusterOf(%s) diverged after restore", a)
		}
	}
	for i, s := range m.Sizes() {
		if got.Sizes()[i] != s {
			t.Fatalf("sizes diverged at %d", i)
		}
	}
}

func TestRestoreRejects(t *testing.T) {
	m := restoreFixture(t)
	keys, vals := m.Index().Keys(), m.Index().Vals()
	type input struct {
		cs   []Cluster
		keys []asnum.ASN
		vals []int32
	}
	clone := func() input {
		return input{slices.Clone(m.Clusters), slices.Clone(keys), slices.Clone(vals)}
	}
	cases := []struct {
		name string
		mut  func(in input) input
		want string
	}{
		{"length mismatch", func(in input) input {
			in.vals = in.vals[:len(in.vals)-1]
			return in
		}, "keys but"},
		{"canonical order violated", func(in input) input {
			in.cs[0], in.cs[len(in.cs)-1] = in.cs[len(in.cs)-1], in.cs[0]
			return in
		}, "canonical order"},
		{"empty cluster", func(in input) input {
			in.cs[len(in.cs)-1].ASNs = nil
			return in
		}, "no members"},
		{"val out of range", func(in input) input {
			in.vals[0] = int32(len(in.cs))
			return in
		}, "out of range"},
		{"keys not ascending", func(in input) input {
			in.keys[1] = in.keys[0] // duplicate key, caught before the cursor walk
			return in
		}, "ascending"},
		{"membership mismatch", func(in input) input {
			// Swap ownership of two ASNs without touching membership.
			in.vals[0], in.vals[len(in.vals)-1] = in.vals[len(in.vals)-1], in.vals[0]
			return in
		}, "disagrees"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.mut(clone())
			pool, off := flatten(in.cs)
			_, err := Restore(pool, off, in.keys, in.vals)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestCompareCanonicalMatchesBuild checks that the exported comparator
// reproduces the order Build actually emits, which is what the delta
// patcher relies on to reassign IDs without a rebuild.
func TestCompareCanonicalMatchesBuild(t *testing.T) {
	m := restoreFixture(t)
	for i := 1; i < len(m.Clusters); i++ {
		if CompareCanonical(m.Clusters[i-1].ASNs, m.Clusters[i].ASNs) >= 0 {
			t.Fatalf("CompareCanonical disagrees with Build order at %d", i)
		}
	}
	if CompareCanonical([]asnum.ASN{5}, []asnum.ASN{5}) != 0 {
		t.Fatal("identical lists must compare equal")
	}
}
