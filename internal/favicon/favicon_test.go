package favicon

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
)

func buildIndex() *Index {
	x := NewIndex()
	// Claro: four country sites, one favicon, differing brand labels.
	x.Add("https://www.clarochile.cl/personas/", "claro-hash", 27995)
	x.Add("https://www.claro.com.do/personas/", "claro-hash", 6400)
	x.Add("https://www.claro.com.pe/personas/", "claro-hash", 12252)
	x.Add("https://www.claropr.com/personas/", "claro-hash", 10396)
	// Orange: two sites, one favicon, same brand label.
	x.Add("https://www.orange.es/", "orange-hash", 12479)
	x.Add("https://www.orange.pl/", "orange-hash", 5617)
	// A unique favicon.
	x.Add("https://www.lumen.com/", "lumen-hash", 3356)
	// Two ASNs landing on the same URL.
	x.Add("https://www.edg.io/", "edgio-hash", 22822)
	x.Add("https://www.edg.io/", "edgio-hash", 15133)
	// A favicon-less URL.
	x.Add("https://plain.test/", "", 65000)
	return x
}

func TestCounts(t *testing.T) {
	x := buildIndex()
	if got := x.UniqueFavicons(); got != 4 {
		t.Errorf("UniqueFavicons = %d, want 4", got)
	}
	if got := x.FinalURLs(); got != 9 {
		t.Errorf("FinalURLs = %d, want 9", got)
	}
	if got := x.URLsWithoutFavicon(); got != 1 {
		t.Errorf("URLsWithoutFavicon = %d, want 1", got)
	}
	if got := x.HashOf("https://www.lumen.com/"); got != "lumen-hash" {
		t.Errorf("HashOf = %q", got)
	}
	if got := x.HashOf("https://plain.test/"); got != "" {
		t.Errorf("HashOf(faviconless) = %q", got)
	}
}

func TestGroupsOrderingAndMembers(t *testing.T) {
	x := buildIndex()
	groups := x.Groups()
	if len(groups) != 4 {
		t.Fatalf("got %d groups", len(groups))
	}
	// Largest group first: claro with 4 URLs.
	if groups[0].Hash != "claro-hash" || len(groups[0].URLs) != 4 {
		t.Errorf("first group = %+v", groups[0])
	}
	if len(groups[0].ASNs) != 4 || groups[0].ASNs[0] != 6400 {
		t.Errorf("claro ASNs = %v", groups[0].ASNs)
	}
	// The edg.io group has one URL but two ASNs.
	var edgio *Group
	for i := range groups {
		if groups[i].Hash == "edgio-hash" {
			edgio = &groups[i]
		}
	}
	if edgio == nil || len(edgio.URLs) != 1 || len(edgio.ASNs) != 2 {
		t.Fatalf("edgio group = %+v", edgio)
	}
}

func TestSharedGroups(t *testing.T) {
	x := buildIndex()
	shared := x.SharedGroups()
	if len(shared) != 2 { // claro and orange; lumen and edgio have 1 URL each
		t.Fatalf("SharedGroups = %d, want 2", len(shared))
	}
	for _, g := range shared {
		if len(g.URLs) < 2 {
			t.Errorf("shared group with %d URLs", len(g.URLs))
		}
	}
}

func TestSameBrandLabel(t *testing.T) {
	x := buildIndex()
	for _, g := range x.SharedGroups() {
		switch g.Hash {
		case "orange-hash":
			if !g.SameBrandLabel() {
				t.Error("orange group should share a brand label")
			}
		case "claro-hash":
			if g.SameBrandLabel() {
				t.Error("claro group labels differ (clarochile vs claropr vs claro)")
			}
		}
	}
	empty := Group{}
	if empty.SameBrandLabel() {
		t.Error("empty group cannot share a label")
	}
	bad := Group{URLs: []string{"http://[::bad", "http://[::bad"}}
	if bad.SameBrandLabel() {
		t.Error("unparsable URLs must not count as shared brand")
	}
}

func TestStats(t *testing.T) {
	x := buildIndex()
	s := x.Stats()
	if s.FinalURLs != 9 || s.UniqueFavicons != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.SharedFavicons != 2 || s.URLsInSharedGroups != 6 {
		t.Errorf("shared stats = %+v", s)
	}
	if s.SharedSameBrand != 1 { // orange only
		t.Errorf("SharedSameBrand = %d, want 1", s.SharedSameBrand)
	}
}

func TestAddEdgeCases(t *testing.T) {
	x := NewIndex()
	x.Add("", "h", 1) // ignored
	if x.FinalURLs() != 0 {
		t.Error("empty URL should be ignored")
	}
	x.Add("https://a.test/", "h", asnum.ASN(1))
	x.Add("https://a.test/", "h", 1) // duplicate
	g := x.Groups()
	if len(g) != 1 || len(g[0].ASNs) != 1 {
		t.Errorf("groups = %+v", g)
	}
}

// TestSharedGroupsMatchGroupsFilter: on random indexes, SharedGroups is
// exactly the groups of Groups with more than one URL, in the same
// order, and Stats and StatsOf agree with statistics computed from
// that filter.
func TestSharedGroupsMatchGroupsFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	brands := []string{"orange", "claro", "lumen", "edg"}
	for trial := 0; trial < 200; trial++ {
		x := NewIndex()
		for i := rng.Intn(60); i >= 0; i-- {
			u := fmt.Sprintf("https://www.%s.test%d/", brands[rng.Intn(len(brands))], rng.Intn(8))
			hash := ""
			if rng.Intn(5) > 0 {
				hash = fmt.Sprintf("h%d", rng.Intn(6))
			}
			x.Add(u, hash, asnum.ASN(1+rng.Intn(30)))
		}
		var want []Group
		stats := Stats{FinalURLs: x.FinalURLs(), UniqueFavicons: x.UniqueFavicons()}
		for _, g := range x.Groups() {
			if len(g.URLs) > 1 {
				want = append(want, g)
				stats.SharedFavicons++
				stats.URLsInSharedGroups += len(g.URLs)
				if g.SameBrandLabel() {
					stats.SharedSameBrand++
				}
			}
		}
		shared := x.SharedGroups()
		if !reflect.DeepEqual(shared, want) {
			t.Fatalf("trial %d: SharedGroups = %+v, want %+v", trial, shared, want)
		}
		if got := x.Stats(); got != stats {
			t.Fatalf("trial %d: Stats = %+v, want %+v", trial, got, stats)
		}
		if got := x.StatsOf(shared); got != stats {
			t.Fatalf("trial %d: StatsOf = %+v, want %+v", trial, got, stats)
		}
	}
}
