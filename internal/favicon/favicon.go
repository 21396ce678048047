// Package favicon groups crawled websites by favicon identity. The paper
// hypothesises that networks under the same administration display the
// same brand icon as their website favicon (§4.3.3); this package builds
// the favicon → final-URL → ASN index those inferences run on, and
// reports the corpus statistics of Table 3 (unique favicons, favicons
// shared by more than one final URL, and shared groups whose URLs also
// share a brand label).
package favicon

import (
	"sort"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/urlmatch"
)

// Group is one favicon shared by a set of final URLs.
type Group struct {
	// Hash identifies the icon (hex SHA-256 of its bytes).
	Hash string
	// URLs are the distinct final URLs displaying the icon, sorted.
	URLs []string
	// ASNs are the networks behind those URLs, sorted and deduplicated.
	ASNs []asnum.ASN
	// ASNsByURL maps each member URL to the sorted networks behind it,
	// so downstream filters that drop URLs can drop their ASNs too.
	ASNsByURL map[string][]asnum.ASN
}

// SameBrandLabel reports whether every URL in the group shares one brand
// label (e.g. www.orange.es and www.orange.pl both carry "orange") —
// the paper's "same subdomain" fast path in the Figure 6 decision tree.
func (g *Group) SameBrandLabel() bool {
	if len(g.URLs) == 0 {
		return false
	}
	first := urlmatch.BrandLabelOfURL(g.URLs[0])
	if first == "" {
		return false
	}
	for _, u := range g.URLs[1:] {
		if urlmatch.BrandLabelOfURL(u) != first {
			return false
		}
	}
	return true
}

// Index accumulates (final URL, favicon hash, ASN) observations.
type Index struct {
	byHash map[string]map[string]bool    // hash -> set of URLs
	byURL  map[string]map[asnum.ASN]bool // URL -> set of ASNs
	hashOf map[string]string             // URL -> hash
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		byHash: make(map[string]map[string]bool),
		byURL:  make(map[string]map[asnum.ASN]bool),
		hashOf: make(map[string]string),
	}
}

// Add records that finalURL (serving the favicon with the given hash) is
// the destination of asn's website. An empty hash records the URL as
// favicon-less (it still counts toward FinalURLs).
func (x *Index) Add(finalURL, hash string, asn asnum.ASN) {
	if finalURL == "" {
		return
	}
	if x.byURL[finalURL] == nil {
		x.byURL[finalURL] = make(map[asnum.ASN]bool)
	}
	x.byURL[finalURL][asn] = true
	if hash == "" {
		return
	}
	x.hashOf[finalURL] = hash
	if x.byHash[hash] == nil {
		x.byHash[hash] = make(map[string]bool)
	}
	x.byHash[hash][finalURL] = true
}

// UniqueFavicons returns the number of distinct favicon hashes observed.
func (x *Index) UniqueFavicons() int { return len(x.byHash) }

// FinalURLs returns the number of distinct final URLs observed.
func (x *Index) FinalURLs() int { return len(x.byURL) }

// URLsWithoutFavicon returns how many final URLs lack a favicon.
func (x *Index) URLsWithoutFavicon() int { return len(x.byURL) - len(x.hashOf) }

// HashOf returns the favicon hash recorded for a final URL ("" if none).
func (x *Index) HashOf(finalURL string) string { return x.hashOf[finalURL] }

// Groups returns every favicon group, sorted by descending URL count and
// then hash, with fully sorted members.
func (x *Index) Groups() []Group { return x.groups(1) }

// SharedGroups returns only groups whose favicon is displayed by more
// than one final URL — the candidates for sibling inference — in
// Groups' order.
func (x *Index) SharedGroups() []Group { return x.groups(2) }

// groups builds the groups of hashes displayed by at least minURLs
// final URLs; no member of a smaller group is built.
func (x *Index) groups(minURLs int) []Group {
	var out []Group
	for hash, urls := range x.byHash {
		if len(urls) < minURLs {
			continue
		}
		g := Group{Hash: hash, ASNsByURL: make(map[string][]asnum.ASN, len(urls))}
		for u := range urls {
			g.URLs = append(g.URLs, u)
			var members []asnum.ASN
			for a := range x.byURL[u] {
				members = append(members, a)
			}
			members = asnum.Dedup(members)
			g.ASNsByURL[u] = members
			g.ASNs = append(g.ASNs, members...)
		}
		sort.Strings(g.URLs)
		g.ASNs = asnum.Dedup(g.ASNs)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].URLs) != len(out[j].URLs) {
			return len(out[i].URLs) > len(out[j].URLs)
		}
		return out[i].Hash < out[j].Hash
	})
	return out
}

// Stats summarises the index in the terms of Table 3 / §5.2.
type Stats struct {
	// FinalURLs is the number of distinct final URLs observed.
	FinalURLs int
	// UniqueFavicons is the number of distinct icons downloaded.
	UniqueFavicons int
	// SharedFavicons is the number of icons shared by >1 final URL.
	SharedFavicons int
	// URLsInSharedGroups is the number of distinct URLs participating
	// in shared-favicon groups.
	URLsInSharedGroups int
	// SharedSameBrand is the number of shared favicons whose URLs also
	// share a brand label (the paper's "same subdomain" count, 281).
	SharedSameBrand int
}

// Stats computes summary statistics.
func (x *Index) Stats() Stats { return x.StatsOf(x.SharedGroups()) }

// StatsOf computes summary statistics from shared, which must be
// x.SharedGroups(), for a caller that already holds them.
func (x *Index) StatsOf(shared []Group) Stats {
	s := Stats{FinalURLs: x.FinalURLs(), UniqueFavicons: x.UniqueFavicons()}
	for _, g := range shared {
		s.SharedFavicons++
		s.URLsInSharedGroups += len(g.URLs)
		if g.SameBrandLabel() {
			s.SharedSameBrand++
		}
	}
	return s
}
