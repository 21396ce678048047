package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/mapdiff"
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
	if c := base.Lookup(10); c == nil || c.Name != "Hermit" {
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
