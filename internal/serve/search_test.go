package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/mapdiff"
)

// searchOracle is Search's contract, computed naively: the ascending
// ids of the organizations whose lowercased name contains the
// lowercased, trimmed query, cut to limit (limit <= 0: no limit).
func searchOracle(m *cluster.Mapping, query string, limit int) []int {
	q := strings.ToLower(strings.TrimSpace(query))
	if q == "" {
		return nil
	}
	var ids []int
	for i := range m.Clusters {
		if strings.Contains(strings.ToLower(m.Clusters[i].Name), q) {
			ids = append(ids, i)
		}
	}
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	return ids
}

// hitIDs lists the cluster IDs of a result.
func hitIDs(hits []cluster.Cluster) []int {
	var ids []int
	for _, c := range hits {
		ids = append(ids, c.ID)
	}
	return ids
}

// namesMapping maps one organization per name: organization i holds
// ASN i+1 alone, so canonical order keeps the names' order.
func namesMapping(names []string) *cluster.Mapping {
	b := cluster.NewBuilder()
	for i := range names {
		b.AddUniverse(asnum.ASN(i + 1))
	}
	return b.Build(func(members []asnum.ASN) string { return names[members[0]-1] })
}

// searchSnapshots returns the snapshots of m Search must agree on: a
// full build, its binary round trip, and a delta patch from base (nil:
// no delta).
func searchSnapshots(t testing.TB, base, m *cluster.Mapping) map[string]*Snapshot {
	t.Helper()
	full, err := NewSnapshot(m, "test")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, full); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Snapshot{"full": full, "binary": loaded}
	if base != nil {
		b, err := NewSnapshot(base, "test")
		if err != nil {
			t.Fatal(err)
		}
		if out["delta"], err = b.ApplyDelta(mapdiff.ComputeDelta(base, m)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// oracleNames are organization names with spaces, punctuation,
// non-ASCII letters and repeated tokens.
var oracleNames = []string{
	"AT&T Services", "Level-3 Parent", "T-Mobile USA", "Deutsche Telekom AG",
	"Telefónica del Perú", "ÆTHER Networks", "at t", "Müller & Söhne GmbH",
	"O'Brien Hosting", "NTT Communications", "ntt-east", "a.b.c", "",
	"Level 3", "Telia Telia", "  padded  name ", "LEVEL-3 legacy", "İstanbul Net",
}

// TestSearchMatchesOracle: Search returns exactly the oracle's ids for
// every token, fragment, punctuated and multi-word query and limit, on
// a full build, its binary round trip and a delta-patched snapshot.
func TestSearchMatchesOracle(t *testing.T) {
	m := namesMapping(oracleNames)
	baseNames := slices.Clone(oracleNames)
	for i := 0; i < len(baseNames); i += 2 {
		baseNames[i] = "Old " + baseNames[i]
	}
	queries := []string{"at&t", "AT&T", "level-3", "t-mobile", " at t ", "&", "-", "o'brien",
		"a.b", "söhne", "perú", "æther", "telia telia", "nothing here", "x"}
	for _, name := range oracleNames {
		lower := strings.ToLower(name)
		queries = append(queries, name, lower)
		queries = append(queries, tokenize(lower)...)
		for i := 0; i+3 <= len(lower); i++ {
			queries = append(queries, lower[i:i+3])
		}
	}
	for label, s := range searchSnapshots(t, namesMapping(baseNames), m) {
		for _, q := range queries {
			for _, limit := range []int{0, 1, 2, 5, 100, -1} {
				got, want := hitIDs(s.Search(q, limit)), searchOracle(m, q, limit)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: Search(%q, %d) = %v, oracle %v", label, q, limit, got, want)
				}
			}
		}
	}
}

// TestSearchPunctuatedQueries: a query holding punctuation finds the
// names that contain it, and the brownout path degrades such a query
// to its first token instead of to nothing.
func TestSearchPunctuatedQueries(t *testing.T) {
	m := namesMapping(oracleNames)
	for label, s := range searchSnapshots(t, nil, m) {
		for q, want := range map[string]string{
			"AT&T":     "AT&T Services",
			"level-3":  "Level-3 Parent",
			"T-Mobile": "T-Mobile USA",
			"O'Brien":  "O'Brien Hosting",
		} {
			if hits := s.Search(q, 10); len(hits) == 0 || hits[0].Name != want {
				t.Errorf("%s: Search(%q) = %v, want %q first", label, q, hitIDs(hits), want)
			}
			found := false
			for _, c := range s.SearchBrownout(q, 10) {
				found = found || c.Name == want
			}
			if !found {
				t.Errorf("%s: SearchBrownout(%q) misses %q", label, q, want)
			}
		}
	}
}

// FuzzSearch holds Search to the oracle over arbitrary names (one per
// line: spaces, punctuation, non-ASCII, invalid UTF-8), queries and
// limits, on a full build, its binary round trip and a delta patch;
// SearchBrownout may miss names but only returns, ascending, names
// holding the query's first token.
func FuzzSearch(f *testing.F) {
	f.Add("AT&T Services\nLevel-3 Parent\nT-Mobile", "at&t", 5)
	f.Add("Level 3\nlevel-3\nLEVEL3", "level", 2)
	f.Add("Telefónica\nmü\x80ller\n\xff\xfeabc", "\x80", 0)
	f.Add("a b\n\tab\nb a", " b ", -1)
	f.Add("İstanbul\nISTANBUL", "i̇st", 1)
	f.Fuzz(func(t *testing.T, names, query string, limit int) {
		list := strings.Split(names, "\n")
		if len(list) > 64 {
			list = list[:64]
		}
		base := slices.Clone(list)
		for i := 0; i < len(base); i += 2 {
			base[i] += " old"
		}
		m := namesMapping(list)
		for label, s := range searchSnapshots(t, namesMapping(base), m) {
			got, want := hitIDs(s.Search(query, limit)), searchOracle(m, query, limit)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Search(%q, %d) = %v, oracle %v", label, query, limit, got, want)
			}
			tok, _ := nextToken(strings.ToLower(strings.TrimSpace(query)))
			all := searchOracle(m, tok, 0)
			brown := hitIDs(s.SearchBrownout(query, limit))
			if len(brown) > max(limit, 0) || !slices.IsSorted(brown) {
				t.Fatalf("%s: SearchBrownout(%q, %d) = %v", label, query, limit, brown)
			}
			for _, id := range brown {
				if _, ok := slices.BinarySearch(all, id); !ok {
					t.Fatalf("%s: SearchBrownout(%q) returned org %d without token %q", label, query, id, tok)
				}
			}
		}
	})
}

// TestLoadedSnapshotHeapObjects: a snapshot loaded from an artifact
// holds its names, tokens and posting lists in flat tables, so it
// retains a few dozen heap objects however many organizations it
// serves, instead of a few per organization.
func TestLoadedSnapshotHeapObjects(t *testing.T) {
	const orgs = 50000
	names := make([]string, orgs)
	for i := range names {
		names[i] = fmt.Sprintf("Org %d Networks-%d", i, i%97)
	}
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, mustSnapshot(t, namesMapping(names))); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	heapObjects := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	before := heapObjects()
	s, err := LoadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	after := heapObjects()
	runtime.KeepAlive(s)
	retained := int64(after) - int64(before)
	if retained >= 1000 {
		t.Fatalf("a loaded %d-organization snapshot retains %d heap objects, want < 1000", orgs, retained)
	}
	t.Logf("a loaded %d-organization snapshot retains %d heap objects", orgs, retained)
}

// maxSnapshotBytesPerOrg bounds what a serving snapshot of
// TestSnapshotHeapBytes's mapping retains per organization. With
// organizations in flat tables and no lowercase names a snapshot
// retains 63–72 bytes per organization there; with a lowercase-name
// table it retained 88–97, and with a cluster.Cluster header and a size
// per organization as well, a loaded or patched one retained 151.
const maxSnapshotBytesPerOrg = 85

// TestSnapshotHeapBytes: a serving snapshot keeps its organizations in
// flat tables however it was made — loaded from an artifact, built by
// NewSnapshot (counting only what it keeps beyond the mapping it was
// built from, whose index it shares) or patched by a delta (its base
// dropped, so that whatever of the base it still holds counts) — and
// so retains fewer than maxSnapshotBytesPerOrg bytes per organization.
func TestSnapshotHeapBytes(t *testing.T) {
	const orgs = 50000
	names := make([]string, orgs)
	for i := range names {
		names[i] = fmt.Sprintf("Org %d Networks-%d", i, i%97)
	}
	m := namesMapping(names)
	renamed := slices.Clone(names)
	for i := 0; i < orgs; i += 100 {
		renamed[i] += " Renamed"
	}
	delta := mapdiff.ComputeDelta(m, namesMapping(renamed))
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, mustSnapshot(t, m)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	retained := map[string]float64{}

	before := heap()
	loaded, err := LoadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	retained["loaded"] = float64(heap()-before) / orgs

	before = heap()
	built := mustSnapshot(t, m)
	retained["built"] = float64(heap()-before) / orgs

	before = heap()
	base, err := LoadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	patched, err := base.ApplyDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	base = nil
	retained["patched"] = float64(heap()-before) / orgs
	// Everything but the base stays live across every measurement.
	runtime.KeepAlive(data)
	runtime.KeepAlive(delta)
	runtime.KeepAlive(m)
	runtime.KeepAlive(loaded)
	runtime.KeepAlive(built)
	runtime.KeepAlive(patched)

	for _, how := range []string{"loaded", "built", "patched"} {
		t.Logf("a %s %d-organization snapshot retains %.1f bytes per organization", how, orgs, retained[how])
		if retained[how] >= maxSnapshotBytesPerOrg {
			t.Errorf("a %s snapshot retains %.1f bytes per organization, want < %d", how, retained[how], maxSnapshotBytesPerOrg)
		}
	}
}

// searchSink keeps BenchmarkSearch's calls from being optimized away.
var searchSink []cluster.Cluster

// BenchmarkSearch prices Search on 32,768 organizations named with two
// or three words built from 36 common syllables, so that, as in real
// names, a short fragment occurs in thousands of distinct tokens. By
// query shape, limit 50: whole tokens (what the benchmark workloads
// send), 3-character fragments (many posting lists to merge) and
// two-word phrases (the postings of the tokens starting with the second
// word, each candidate's name lowered and confirmed).
//
//	go test -run=NONE -bench=BenchmarkSearch ./internal/serve/
func BenchmarkSearch(b *testing.B) {
	syllables := strings.Fields("tel net com data link web host ix cloud fiber star sky " +
		"on line tech global metro wave cast sat mobile era nord grid air band bit " +
		"core edge fast hub max one pro zone")
	rng := rand.New(rand.NewSource(7))
	word := func() string {
		w := syllables[rng.Intn(len(syllables))] + syllables[rng.Intn(len(syllables))]
		if rng.Intn(2) == 0 {
			w += syllables[rng.Intn(len(syllables))]
		}
		return w
	}
	names := make([]string, 32768)
	for i := range names {
		names[i] = word() + " " + word()
		if i%3 == 0 {
			names[i] += " " + word()
		}
	}
	s := mustSnapshot(b, namesMapping(names))
	shapes := map[string][]string{}
	for i := 0; i < 256; i++ {
		toks := tokenize(names[rng.Intn(len(names))])
		tok := toks[rng.Intn(len(toks))]
		at := rng.Intn(len(tok) - 2)
		shapes["token"] = append(shapes["token"], tok)
		shapes["fragment"] = append(shapes["fragment"], tok[at:at+3])
		shapes["phrase"] = append(shapes["phrase"], toks[0]+" "+toks[1])
	}
	for _, shape := range []string{"token", "fragment", "phrase"} {
		b.Run(shape, func(b *testing.B) {
			queries := shapes[shape]
			for i := 0; i < b.N; i++ {
				searchSink = s.Search(queries[i%len(queries)], 50)
			}
			recordBench(b, nil)
		})
	}
}
