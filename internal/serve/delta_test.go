package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/mapdiff"
	"github.com/nu-aqualab/borges/internal/snapbin"
)

// groupedMapping builds a mapping from explicit (name, members) groups
// plus extra universe singletons, for controlled delta scenarios.
func groupedMapping(groups map[string][]asnum.ASN, singletons ...asnum.ASN) *cluster.Mapping {
	b := cluster.NewBuilder()
	names := map[asnum.ASN]string{}
	for name, members := range groups {
		b.Add(cluster.SiblingSet{ASNs: members, Source: cluster.FeatureOIDW})
		names[members[0]] = name
	}
	b.AddUniverse(singletons...)
	return b.Build(func(members []asnum.ASN) string {
		return names[members[0]]
	})
}

// TestDeltaEquivalence is the guard the incremental reload rests on:
// applying a computed delta to the base snapshot yields a snapshot
// deep-equal (same content hash) to one built from scratch off the new
// mapping. The transition exercises every edit kind at once — a
// rename, a merge, a group dissolving into singletons, and a brand-new
// cluster — so canonical IDs shift for survivors in both directions.
func TestDeltaEquivalence(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	oldM := groupedMapping(map[string][]asnum.ASN{
		"Quad":    {1, 2, 3, 4},
		"Pair":    {5, 6},
		"Triple":  {7, 8, 9},
		"Hermit":  {10},
		"Archive": {20, 21, 22},
	})
	newM := groupedMapping(map[string][]asnum.ASN{
		"Quintet": {1, 2, 3, 4, 10}, // merge Quad+Hermit, renamed
		"Pair v2": {5, 6},           // pure rename
		"Fresh":   {11, 12},         // brand-new cluster
		"Archive": {20, 21, 22},     // untouched survivor
	}, 7, 8, 9) // Triple dissolves into singletons

	base, err := newSnapshotAt(oldM, "test", Health{Status: HealthOK}, now)
	if err != nil {
		t.Fatal(err)
	}
	d := mapdiff.ComputeDelta(oldM, newM)
	if d.Empty() {
		t.Fatal("transition produced an empty delta")
	}
	patched, err := base.applyDeltaAt(d, now)
	if err != nil {
		t.Fatal(err)
	}
	if patched.LoadMode() != LoadModeDelta {
		t.Fatalf("load mode %q, want %q", patched.LoadMode(), LoadModeDelta)
	}
	scratch, err := newSnapshotAt(newM, "test", Health{Status: HealthOK}, now)
	if err != nil {
		t.Fatal(err)
	}
	snapEqual(t, scratch, patched)

	// The base must be untouched: still serving the old answers.
	if c, ok := base.Lookup(10); !ok || c.Name != "Hermit" {
		t.Fatal("ApplyDelta mutated its base snapshot")
	}
}

// TestDeltaEquivalenceLarge repeats the deep-equal guard across
// successive variant transitions at a scale where canonical order,
// posting-list remapping, and ID resplicing all do real work.
func TestDeltaEquivalenceLarge(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cur := variantMapping(0, 512)
	snap, err := newSnapshotAt(cur, "test", Health{Status: HealthOK}, now)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 4; v++ {
		next := variantMapping(v, 512)
		patched, err := snap.applyDeltaAt(mapdiff.ComputeDelta(cur, next), now)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		scratch, err := newSnapshotAt(next, "test", Health{Status: HealthOK}, now)
		if err != nil {
			t.Fatal(err)
		}
		snapEqual(t, scratch, patched)
		cur, snap = next, patched
	}
}

func TestDeltaRejects(t *testing.T) {
	base := mustSnapshot(t, groupedMapping(map[string][]asnum.ASN{
		"A": {1, 2, 3},
		"B": {10, 11},
	}))
	cases := []struct {
		name string
		d    *mapdiff.Delta
	}{
		{"wrong base membership", &mapdiff.Delta{
			Removed: [][]asnum.ASN{{1, 2}}, // A is {1,2,3}
		}},
		{"unknown organization", &mapdiff.Delta{
			Removed: [][]asnum.ASN{{99}},
		}},
		{"double removal", &mapdiff.Delta{
			Removed: [][]asnum.ASN{{1, 2, 3}, {1, 2, 3}},
		}},
		{"add claims held ASN", &mapdiff.Delta{
			Added: []cluster.Cluster{{Name: "X", ASNs: []asnum.ASN{10, 50}}},
		}},
		{"add not ascending", &mapdiff.Delta{
			Removed: [][]asnum.ASN{{10, 11}},
			Added:   []cluster.Cluster{{Name: "X", ASNs: []asnum.ASN{11, 10}}},
		}},
		{"overlapping adds", &mapdiff.Delta{
			Added: []cluster.Cluster{
				{Name: "X", ASNs: []asnum.ASN{50}},
				{Name: "Y", ASNs: []asnum.ASN{50, 51}},
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := base.ApplyDelta(tc.d); !errors.Is(err, ErrDeltaMismatch) {
				t.Fatalf("ApplyDelta = %v, want %v", err, ErrDeltaMismatch)
			}
		})
	}
	// Removing everything is a validation failure too, though not a
	// base mismatch.
	if _, err := base.ApplyDelta(&mapdiff.Delta{
		Removed: [][]asnum.ASN{{1, 2, 3}, {10, 11}},
	}); err == nil {
		t.Fatal("delta emptying the mapping accepted")
	}
}

// fuzzNames are the names FuzzApplyDelta gives its organizations:
// punctuation, non-ASCII letters, invalid UTF-8, spaces and the empty
// name.
var fuzzNames = []string{
	"AT&T Services", "Level-3", "Telefónica del Perú", "İstanbul Net", "Müller & Söhne",
	"o'brien", "ÆTHER", "", "a.b.c", "  padded  ", "NTT ntt", "\xffbad\xfe", "ⱥlpha Ⱥ",
}

// fuzzGrouping groups ASNs 1..len(b): ASN i+1 joins group b[i]%8, and
// a group is named after the upper bits of its first member's byte.
func fuzzGrouping(b []byte) *cluster.Mapping {
	groups := map[byte][]asnum.ASN{}
	for i, v := range b {
		groups[v%8] = append(groups[v%8], asnum.ASN(i+1))
	}
	bld := cluster.NewBuilder()
	for _, members := range groups {
		bld.Add(cluster.SiblingSet{ASNs: members, Source: cluster.Feature(int(b[members[0]-1]) % cluster.NumFeatures)})
	}
	return bld.Build(func(members []asnum.ASN) string {
		return fuzzNames[int(b[members[0]-1]>>3)%len(fuzzNames)]
	})
}

// FuzzApplyDelta holds the merge walk that places a delta's additions
// to a from-scratch build: the fuzz bytes group up to 64 ASNs twice,
// into a base and a next mapping, and the base patched by their delta
// must equal the next mapping built whole. Three mutations of the
// delta (a removal missing a member, an addition claiming a surviving
// ASN, an addition repeated) must each be refused with
// ErrDeltaMismatch, the base left as it was.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte("abcdefghabcdefgi"))
	f.Add([]byte("\x00\x00\x00\x00\x01\x01\x01\x01"))
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x00\x00\x08\x08\x10\x10\x18\x18"))
	f.Add([]byte("Telefónica y AT&T, Level-3 y İstanbul"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/2, 64)
		if n == 0 {
			return
		}
		now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
		build := func(m *cluster.Mapping) *Snapshot {
			s, err := newSnapshotAt(m, "fuzz", Health{Status: HealthOK}, now)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		baseM, nextM := fuzzGrouping(data[:n]), fuzzGrouping(data[n:2*n])
		base := build(baseM)
		hash := base.ContentHash()
		d := mapdiff.ComputeDelta(baseM, nextM)
		patched, err := base.applyDeltaAt(d, now)
		if err != nil {
			t.Fatalf("delta %s: %v", d.Summary(), err)
		}
		snapEqual(t, build(nextM), patched)

		removed := map[asnum.ASN]bool{}
		for _, members := range d.Removed {
			for _, a := range members {
				removed[a] = true
			}
		}
		var bad []*mapdiff.Delta
		if len(d.Removed) > 0 {
			m := &mapdiff.Delta{Removed: slices.Clone(d.Removed), Added: d.Added}
			m.Removed[0] = m.Removed[0][:len(m.Removed[0])-1]
			bad = append(bad, m)
		}
		for a := asnum.ASN(1); int(a) <= n; a++ {
			if !removed[a] {
				m := &mapdiff.Delta{Removed: d.Removed, Added: slices.Clone(d.Added)}
				m.Added = append(m.Added, cluster.Cluster{Name: "claim", ASNs: []asnum.ASN{a}})
				bad = append(bad, m)
				break
			}
		}
		if len(d.Added) > 0 {
			bad = append(bad, &mapdiff.Delta{Removed: d.Removed, Added: append(slices.Clone(d.Added), d.Added[0])})
		}
		for _, m := range bad {
			if _, err := base.applyDeltaAt(m, now); !errors.Is(err, ErrDeltaMismatch) {
				t.Fatalf("mutated delta %s applied: %v, want %v", m.Summary(), err, ErrDeltaMismatch)
			}
		}
		snapEqual(t, build(baseM), base)
		if h := snapbin.HashImage(base.image()); h != hash {
			t.Fatalf("refused deltas changed the base: hash %s, was %s", h, hash)
		}
	})
}

// TestDeltaReloadUnderFire drives concurrent lookups against a server
// whose snapshot advances exclusively through incremental delta
// reloads, then proves the final state is content-identical to a
// from-scratch build of the final mapping. Run with -race this is the
// safety argument for patching live state behind validate-then-swap.
func TestDeltaReloadUnderFire(t *testing.T) {
	const (
		n       = 256
		reloads = 25
	)
	cur := variantMapping(0, n)
	var mu sync.Mutex
	v := 0
	opts := Options{
		DeltaSource: func(ctx context.Context) (*mapdiff.Delta, error) {
			// Reloads are serialized by the server's latch; the mutex
			// only guards the final read below.
			mu.Lock()
			defer mu.Unlock()
			next := variantMapping(v+1, n)
			d := mapdiff.ComputeDelta(cur, next)
			v++
			cur = next
			return d, nil
		},
	}
	srv, err := NewServer(mustSnapshot(t, cur), opts)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				asn := i%n + 1
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/as/%d", asn), nil))
				if rec.Code != http.StatusOK {
					t.Errorf("reader %d: /v1/as/%d = %d", r, asn, rec.Code)
					return
				}
				rec = httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("reader %d: /v1/stats = %d", r, rec.Code)
					return
				}
			}
		}(r)
	}

	for i := 0; i < reloads; i++ {
		if _, err := srv.ReloadDelta(context.Background()); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("delta reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	final := srv.Snapshot()
	if final.LoadMode() != LoadModeDelta {
		t.Fatalf("final load mode %q", final.LoadMode())
	}
	mu.Lock()
	finalMapping := cur
	mu.Unlock()
	scratch, err := newSnapshotAt(finalMapping, "test", Health{Status: HealthOK}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if scratch.ContentHash() != final.ContentHash() {
		t.Fatalf("after %d delta reloads the snapshot diverged from a from-scratch build:\n want %s\n  got %s",
			reloads, scratch.ContentHash(), final.ContentHash())
	}
}
