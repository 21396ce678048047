package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
)

// TestParallelSnapshotBuildEquivalence: a snapshot built with many
// workers is indistinguishable from a single-worker build — same token
// index, same posting lists, same stats.
func TestParallelSnapshotBuildEquivalence(t *testing.T) {
	m := variantMapping(3, 4096)
	now := time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC)
	seq, err := newSnapshotWorkers(m, "seq", Health{}, now, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		par, err := newSnapshotWorkers(m, "seq", Health{}, now, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.stats, par.stats) {
			t.Fatalf("workers=%d: stats diverge: %+v vs %+v", workers, seq.stats, par.stats)
		}
		if !reflect.DeepEqual(seq.tokens, par.tokens) {
			t.Fatalf("workers=%d: token lists diverge", workers)
		}
		if !reflect.DeepEqual(seq.postings, par.postings) {
			t.Fatalf("workers=%d: posting lists diverge", workers)
		}
	}
}

// TestPreRenderedBodies: the rendered bytes parse back into exactly the
// structures the oracle encodes.
func TestPreRenderedBodies(t *testing.T) {
	s := mustSnapshot(t, testMapping(t))
	c, ok := s.Lookup(3356)
	if !ok {
		t.Fatal("Lookup(3356) found nothing")
	}
	var org orgJSON
	if err := json.Unmarshal(s.OrgBody(c.ID), &org); err != nil {
		t.Fatalf("OrgBody does not parse: %v", err)
	}
	if org.Name != "Lumen Technologies" || org.Size != 3 || len(org.ASNs) != 3 {
		t.Fatalf("OrgBody = %+v", org)
	}
	body, ok := s.AppendASBody(nil, 3356)
	if !ok {
		t.Fatal("AppendASBody(3356) reported unmapped")
	}
	var as struct {
		ASN      uint32   `json:"asn"`
		Org      orgJSON  `json:"org"`
		Siblings []uint32 `json:"siblings"`
	}
	if err := json.Unmarshal(body, &as); err != nil {
		t.Fatalf("AS body does not parse: %v\n%s", err, body)
	}
	if as.ASN != 3356 || as.Org.Name != "Lumen Technologies" {
		t.Fatalf("AS body = %+v", as)
	}
	if want := []uint32{209, 3356, 3549}; !reflect.DeepEqual(as.Siblings, want) {
		t.Fatalf("siblings = %v, want %v", as.Siblings, want)
	}
	if _, ok := s.AppendASBody(nil, 4242424); ok {
		t.Fatal("AppendASBody reported a body for an unmapped ASN")
	}
	if s.OrgBody(-1) != nil || s.OrgBody(1<<20) != nil {
		t.Fatal("OrgBody out of range returned bytes")
	}
}

// TestLookupZeroAllocs is the CI guard for the serving hot path: an ASN
// point lookup plus the rendered /v1/as and /v1/org bodies must not
// allocate.
func TestLookupZeroAllocs(t *testing.T) {
	s := mustSnapshot(t, variantMapping(2, 4096))
	buf := make([]byte, 0, 4096)
	asn := asnum.ASN(1)
	if got := testing.AllocsPerRun(1000, func() {
		asn++
		if asn > 4096 {
			asn = 1
		}
		c, ok := s.Lookup(asn)
		if !ok {
			t.Fatalf("AS%d unmapped", asn)
		}
		body, ok := s.AppendASBody(buf[:0], asn)
		if !ok || len(body) == 0 {
			t.Fatal("empty AS body")
		}
		body, ok = s.AppendOrgBody(buf[:0], c.ID)
		if !ok || len(body) == 0 {
			t.Fatal("missing org body")
		}
	}); got != 0 {
		t.Fatalf("point lookup path allocates %v times per op, want 0", got)
	}
}

// TestSearchZeroSteadyStateAllocs: after warm-up, a limited search, a
// single word or a phrase, allocates only its result slice.
func TestSearchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool items, inflating alloc counts")
	}
	s := mustSnapshot(t, variantMapping(2, 4096))
	// A token query, and a phrase whose candidates are confirmed against
	// their names lowered into the scratch.
	for _, q := range []string{"org", "org v2 #1"} {
		for i := 0; i < 8; i++ { // prime the scratch pool
			s.Search(q, 10)
		}
		got := testing.AllocsPerRun(500, func() {
			if hits := s.Search(q, 10); len(hits) == 0 {
				t.Fatalf("%q: no hits", q)
			}
		})
		// One allocation for the returned []*Cluster is inherent to the API.
		if got > 1 {
			t.Fatalf("limited search for %q allocates %v times per op, want <= 1", q, got)
		}
	}
}

// TestSearchLimitSemantics: collecting with an early exit must return
// exactly the prefix of the unlimited result, for single-word (token
// merge) and multi-word (substring scan) queries alike.
func TestSearchLimitSemantics(t *testing.T) {
	s := mustSnapshot(t, variantMapping(1, 512))
	// "1" matches many tokens ("v1", "1", "10", …) so it exercises the
	// multi-list merge; "org v1" takes the phrase path.
	for _, q := range []string{"org", "v1", "org v1", "1"} {
		full := s.Search(q, 0)
		for i := 1; i < len(full) && i < 8; i++ {
			limited := s.Search(q, i)
			if len(limited) != i {
				t.Fatalf("Search(%q, %d) returned %d hits", q, i, len(limited))
			}
			for j := range limited {
				if limited[j].ID != full[j].ID {
					t.Fatalf("Search(%q, %d)[%d] = org %d, want org %d (prefix of unlimited result)",
						q, i, j, limited[j].ID, full[j].ID)
				}
			}
		}
		// Ascending-ID order must hold throughout.
		for j := 1; j < len(full); j++ {
			if full[j-1].ID >= full[j].ID {
				t.Fatalf("Search(%q) ids not ascending: %d then %d", q, full[j-1].ID, full[j].ID)
			}
		}
	}
}

// TestSearchConcurrentScratchReuse hammers the pooled scratch state
// from many goroutines; run under -race it proves query state never
// leaks across concurrent searches.
func TestSearchConcurrentScratchReuse(t *testing.T) {
	s := mustSnapshot(t, variantMapping(4, 1024))
	want := s.Search("org", 25)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got := s.Search("org", 25)
				if len(got) != len(want) {
					t.Errorf("concurrent search returned %d hits, want %d", len(got), len(want))
					return
				}
				for j := range got {
					if got[j].ID != want[j].ID {
						t.Errorf("concurrent search hit %d = org %d, want org %d", j, got[j].ID, want[j].ID)
						return
					}
				}
				if len(s.SearchBrownout("org", 10)) == 0 {
					t.Error("brownout search returned nothing")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelBuildDuringConcurrentReloads is the -race sweep the
// tentpole asks for: multi-worker snapshot builds racing hot reloads
// and live point lookups rendered from the serving snapshot.
func TestParallelBuildDuringConcurrentReloads(t *testing.T) {
	const universe = 512
	snap, err := newSnapshotWorkers(variantMapping(0, universe), "par-reload", Health{}, time.Now(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var version int
	srv, err := NewServer(snap, Options{
		BuildWorkers: 4,
		Source: func(ctx context.Context) (*cluster.Mapping, error) {
			version++
			return variantMapping(version, universe), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-done:
					return
				default:
				}
				i++
				a := asnum.ASN(i%universe + 1)
				body, ok := srv.Snapshot().AppendASBody(nil, a)
				if !ok {
					t.Errorf("AS%d unmapped mid-reload", a)
					return
				}
				var parsed struct {
					ASN uint32 `json:"asn"`
				}
				if err := json.Unmarshal(body, &parsed); err != nil || parsed.ASN != uint32(a) {
					t.Errorf("torn AS body for AS%d: %v %s", a, err, body)
					return
				}
			}
		}(g)
	}
	for r := 0; r < 30; r++ {
		if _, err := srv.Reload(context.Background()); err != nil {
			t.Fatalf("reload %d: %v", r, err)
		}
	}
	close(done)
	wg.Wait()
	if got := srv.Snapshot().Stats().ASNs; got != universe {
		t.Fatalf("final snapshot covers %d networks, want %d", got, universe)
	}
}
