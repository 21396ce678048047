package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
)

// exportBytes renders a mapping the way borges -format jsonl would.
func exportBytes(t testing.TB, m *Mapping) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, m); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// testNamer derives a deterministic name from the smallest member, so
// the builder and the oracle both exercise name interning.
func testNamer(members []asnum.ASN) string {
	if members[0]%3 == 0 {
		return "" // some clusters stay unnamed
	}
	return fmt.Sprintf("Org-%d", members[0]%512)
}

// oracleBuild is the reference consolidation: the universe and every
// set replayed through the map-keyed UnionFind, then each set's
// feature credited through its first member.
func oracleBuild(universe []asnum.ASN, sets []SiblingSet, namer Namer) *Mapping {
	uf := NewUnionFind()
	for _, a := range universe {
		uf.Add(a)
	}
	for _, s := range sets {
		uf.UnionAll(s.ASNs)
	}
	m := materialize(uf.Components(), namer)
	for _, s := range sets {
		if len(s.ASNs) > 0 {
			id, _ := m.index.Lookup(s.ASNs[0])
			m.Clusters[id].Features[s.Source] = true
		}
	}
	return m
}

// TestBuilderMatchesOracle: on seeded random inputs, Build exports the
// same JSONL bytes as the oracle consolidation of the same inputs.
// The inputs hold ASNs outside the universe, empty and singleton sets
// and every feature, and Build runs between Adds as well as at the end.
func TestBuilderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		b := NewBuilder()
		var universe []asnum.ASN
		var sets []SiblingSet
		span := 1 + rng.Intn(400)
		for op := rng.Intn(120); op >= 0; op-- {
			switch k := rng.Intn(10); {
			case k == 0:
				us := make([]asnum.ASN, rng.Intn(20))
				for i := range us {
					us[i] = asnum.ASN(1 + rng.Intn(span))
				}
				b.AddUniverse(us...)
				universe = append(universe, us...)
			case k == 1 && op > 0:
				if got, want := exportBytes(t, b.Build(testNamer)), exportBytes(t, oracleBuild(universe, sets, testNamer)); !bytes.Equal(got, want) {
					t.Fatalf("trial %d: intermediate Build diverges from the oracle:\n%s\nwant:\n%s", trial, got, want)
				}
			default:
				s := SiblingSet{ASNs: make([]asnum.ASN, rng.Intn(8)), Source: Feature(rng.Intn(NumFeatures))}
				for i := range s.ASNs {
					// Half again the universe's span, so some
					// members are networks no universe declared.
					s.ASNs[i] = asnum.ASN(1 + rng.Intn(span+span/2+1))
				}
				b.Add(s)
				sets = append(sets, s)
			}
		}
		if got, want := exportBytes(t, b.Build(testNamer)), exportBytes(t, oracleBuild(universe, sets, testNamer)); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: Build diverges from the oracle:\n%s\nwant:\n%s", trial, got, want)
		}
	}

	// One heavily overlapping instance large enough for the page index
	// and for components of very different sizes.
	const n = 8192
	var universe []asnum.ASN
	for a := 1; a <= n; a++ {
		universe = append(universe, asnum.ASN(a))
	}
	sets := nearNeighbourSets(rng, n)
	b := NewBuilder()
	b.AddUniverse(universe...)
	b.AddAll(sets)
	if !bytes.Equal(exportBytes(t, b.Build(testNamer)), exportBytes(t, oracleBuild(universe, sets, testNamer))) {
		t.Fatal("large instance: Build diverges from the oracle")
	}
}

// nearNeighbourSets draws 4n sets of 2–7 members over ASNs 1..n,
// mostly near neighbours with occasional long-range edges, so
// components of very different sizes emerge.
func nearNeighbourSets(rng *rand.Rand, n int) []SiblingSet {
	sets := make([]SiblingSet, 4*n)
	for i := range sets {
		sets[i].Source = Feature(i % NumFeatures)
		base := rng.Intn(n) + 1
		for j := rng.Intn(6) + 2; j > 0; j-- {
			a := base + rng.Intn(16) - 8
			if rng.Intn(64) == 0 {
				a = rng.Intn(n) + 1
			}
			sets[i].ASNs = append(sets[i].ASNs, asnum.ASN(min(max(a, 1), n)))
		}
	}
	return sets
}

// TestBuilderRetainsNoSets: a builder keeps only its union-find, so
// after 4n sets over n networks, with the caller's slices dropped, it
// holds well under 64 bytes per network. A builder that kept the sets
// (a 48-byte header plus the members for each) held ~338.
func TestBuilderRetainsNoSets(t *testing.T) {
	const n = 50_000
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	b := NewBuilder()
	for a := 1; a <= n; a++ {
		b.AddUniverse(asnum.ASN(a))
	}
	b.AddAll(nearNeighbourSets(rand.New(rand.NewSource(5)), n))
	perASN := float64(heap()-before) / n
	runtime.KeepAlive(b)
	t.Logf("builder holds %.1f B per network", perASN)
	if perASN >= 64 {
		t.Fatalf("builder holds %.1f B per network after 4n sets, want < 64", perASN)
	}
}

// TestClusterOfPageIndex forces the two-level index (≥ pageIndexMin
// networks) with ASNs scattered across distant pages, including empty
// pages between occupied ones, and checks hits and misses.
func TestClusterOfPageIndex(t *testing.T) {
	b := NewBuilder()
	var asns []asnum.ASN
	for i := 0; i < pageIndexMin; i++ {
		// Spread across pages: low block, a mid block 3 pages up, and a
		// sparse high block.
		var a asnum.ASN
		switch i % 3 {
		case 0:
			a = asnum.ASN(i + 1)
		case 1:
			a = asnum.ASN(3<<asnPageShift + i)
		default:
			a = asnum.ASN(9<<asnPageShift + i*7)
		}
		asns = append(asns, a)
		b.AddUniverse(a)
	}
	m := b.Build(nil)
	if m.index.pages == nil {
		t.Fatal("page index not built for a large mapping")
	}
	for _, a := range asns {
		if m.ClusterOf(a) == nil {
			t.Fatalf("ClusterOf(%v) = nil, want a cluster", a)
		}
	}
	for _, miss := range []asnum.ASN{0, 2 << asnPageShift, 5 << asnPageShift, 200 << asnPageShift, asnum.MaxASN} {
		if m.ClusterOf(miss) != nil {
			t.Fatalf("ClusterOf(%v) found a cluster for an unmapped ASN", miss)
		}
	}
}

// TestSizesMemoized: Sizes is computed once at build time — repeated
// calls hand back the same cached slice instead of allocating and
// re-sorting.
func TestSizesMemoized(t *testing.T) {
	b := NewBuilder()
	b.Add(SiblingSet{ASNs: []asnum.ASN{1, 2, 3}})
	b.Add(SiblingSet{ASNs: []asnum.ASN{10, 11}})
	b.AddUniverse(99)
	m := b.Build(nil)
	s1, s2 := m.Sizes(), m.Sizes()
	if &s1[0] != &s2[0] {
		t.Error("Sizes() allocated a fresh slice on the second call")
	}
	for i := 1; i < len(s1); i++ {
		if s1[i] > s1[i-1] {
			t.Fatalf("Sizes() not descending: %v", s1)
		}
	}
	if got := testing.AllocsPerRun(100, func() { m.Sizes() }); got != 0 {
		t.Errorf("Sizes() allocates %v times per call, want 0", got)
	}
}
