package mapdiff

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
)

// clusterKey fingerprints an organization by everything that makes it
// "the same" across mappings: members, display name, and features.
func clusterKey(c *cluster.Cluster) string {
	var b strings.Builder
	for _, a := range c.ASNs {
		fmt.Fprintf(&b, "%d,", uint32(a))
	}
	b.WriteByte(0)
	b.WriteString(c.Name)
	b.WriteByte(0)
	for f := 0; f < cluster.NumFeatures; f++ {
		if c.Features[f] {
			b.WriteByte('0' + byte(f))
		}
	}
	return b.String()
}

// keyedDelta is Diff's contract computed by matching whole-organization
// keys: every old organization without an identical new one is
// removed (in old's order), every new organization without an
// identical old one is added (in new's order).
func keyedDelta(old, new *cluster.Mapping) *Delta {
	oldKeys := make(map[string]int, len(old.Clusters))
	for i := range old.Clusters {
		oldKeys[clusterKey(&old.Clusters[i])]++
	}
	d := &Delta{}
	for i := range new.Clusters {
		k := clusterKey(&new.Clusters[i])
		if oldKeys[k] > 0 {
			oldKeys[k]--
			continue
		}
		d.Added = append(d.Added, new.Clusters[i])
	}
	newKeys := make(map[string]int, len(new.Clusters))
	for i := range new.Clusters {
		newKeys[clusterKey(&new.Clusters[i])]++
	}
	for i := range old.Clusters {
		k := clusterKey(&old.Clusters[i])
		if newKeys[k] > 0 {
			newKeys[k]--
			continue
		}
		d.Removed = append(d.Removed, old.Clusters[i].ASNs)
	}
	return d
}

// org is one organization of a generated mapping.
type org struct {
	members  []asnum.ASN
	name     string
	features [cluster.NumFeatures]bool
}

// buildOrgs builds the mapping whose organizations are exactly orgs:
// one sibling set per feature of a multi-member organization, and a
// bare universe entry for a featureless singleton.
func buildOrgs(orgs []org) *cluster.Mapping {
	b := cluster.NewBuilder()
	names := map[asnum.ASN]string{}
	for _, o := range orgs {
		b.AddUniverse(o.members...)
		names[o.members[0]] = o.name
		for f, on := range o.features {
			if on {
				b.Add(cluster.SiblingSet{ASNs: o.members, Source: cluster.Feature(f)})
			}
		}
	}
	return b.Build(func(members []asnum.ASN) string { return names[members[0]] })
}

// randomOrgs partitions ASNs 1..n into organizations of up to four
// members with random names and features; a multi-member organization
// always has a feature, since a sibling set is what joins it.
func randomOrgs(rng *rand.Rand, n int) []org {
	perm := rng.Perm(n)
	var orgs []org
	for i := 0; i < n; {
		size := min(1+rng.Intn(4), n-i)
		o := org{name: fmt.Sprintf("Org %d", rng.Intn(n/2+1))}
		for _, p := range perm[i : i+size] {
			o.members = append(o.members, asnum.ASN(p+1))
		}
		slices.Sort(o.members)
		randomFeatures(rng, &o)
		orgs = append(orgs, o)
		i += size
	}
	return orgs
}

func randomFeatures(rng *rand.Rand, o *org) {
	for {
		for f := range o.features {
			o.features[f] = rng.Intn(3) == 0
		}
		if len(o.members) == 1 || slices.Contains(o.features[:], true) {
			return
		}
	}
}

// mutate applies one random edit to orgs: a rename, a feature-only
// change, a merge, a split, a new organization or a departure.
func mutate(rng *rand.Rand, orgs []org, next *asnum.ASN) []org {
	i := rng.Intn(len(orgs))
	switch rng.Intn(6) {
	case 0:
		orgs[i].name += " renamed"
	case 1:
		randomFeatures(rng, &orgs[i])
	case 2:
		j := rng.Intn(len(orgs))
		if i == j {
			return orgs
		}
		merged := org{name: orgs[i].name, features: orgs[i].features}
		merged.members = append(slices.Clone(orgs[i].members), orgs[j].members...)
		slices.Sort(merged.members)
		for f, on := range orgs[j].features {
			merged.features[f] = merged.features[f] || on
		}
		randomFeatures(rng, &merged)
		orgs[i] = merged
		orgs = slices.Delete(orgs, j, j+1)
	case 3:
		if len(orgs[i].members) < 2 {
			return orgs
		}
		cut := 1 + rng.Intn(len(orgs[i].members)-1)
		tail := org{members: slices.Clone(orgs[i].members[cut:]), name: orgs[i].name + " spun off"}
		orgs[i].members = slices.Clone(orgs[i].members[:cut])
		randomFeatures(rng, &orgs[i])
		randomFeatures(rng, &tail)
		orgs = append(orgs, tail)
	case 4:
		*next++
		o := org{members: []asnum.ASN{*next}, name: "Newcomer"}
		randomFeatures(rng, &o)
		orgs = append(orgs, o)
	case 5:
		if len(orgs) > 1 {
			orgs = slices.Delete(orgs, i, i+1)
		}
	}
	return orgs
}

// TestDiffMatchesKeyedOracle: on random mappings and random edits of
// them — renames, feature-only changes, merges, splits, arrivals and
// departures — the merge walk returns exactly the keyed oracle's delta,
// in both directions, over mappings and through the Orgs view.
func TestDiffMatchesKeyedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		base := randomOrgs(rng, n)
		edited := slices.Clone(base)
		for k := range edited {
			edited[k].members = slices.Clone(edited[k].members)
		}
		next := asnum.ASN(n)
		for e := rng.Intn(12); e > 0; e-- {
			edited = mutate(rng, edited, &next)
		}
		a, b := buildOrgs(base), buildOrgs(edited)
		for _, pair := range [][2]*cluster.Mapping{{a, b}, {b, a}, {a, a}} {
			want := keyedDelta(pair[0], pair[1])
			if got := ComputeDelta(pair[0], pair[1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: walk %s, oracle %s\n got %+v\nwant %+v", trial, got.Summary(), want.Summary(), got, want)
			}
		}
	}
}

// TestDiffOwnsItsDelta: a delta shares no memory with the mappings it
// was computed from, so holding it keeps neither reachable.
func TestDiffOwnsItsDelta(t *testing.T) {
	old := buildOrgs([]org{{members: []asnum.ASN{1, 2}, name: "A", features: [cluster.NumFeatures]bool{true}}})
	new := buildOrgs([]org{{members: []asnum.ASN{1, 2}, name: "B", features: [cluster.NumFeatures]bool{true}}})
	d := Diff(old, new)
	if len(d.Removed) != 1 || len(d.Added) != 1 {
		t.Fatalf("rename delta = %s", d.Summary())
	}
	if &d.Removed[0][0] == &old.Clusters[0].ASNs[0] || &d.Added[0].ASNs[0] == &new.Clusters[0].ASNs[0] {
		t.Fatal("delta members alias a mapping")
	}
	if d.Added[0].Name != "B" {
		t.Fatalf("added name = %q", d.Added[0].Name)
	}
}
