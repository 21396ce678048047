package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/admission"
	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
)

// variantMapping builds mapping variant v over a fixed universe. Every
// variant keeps ASNs 1..n mapped but regroups them, so a lookup must
// succeed against every variant — and any torn state would surface as a
// miss or an inconsistent sibling list.
func variantMapping(v, n int) *cluster.Mapping {
	b := cluster.NewBuilder()
	asns := make([]asnum.ASN, n)
	for i := range asns {
		asns[i] = asnum.ASN(i + 1)
		b.AddUniverse(asns[i])
	}
	// Group consecutive runs of (v%5)+2 ASNs.
	run := v%5 + 2
	for i := 0; i < n; i += run {
		end := i + run
		if end > n {
			end = n
		}
		b.Add(cluster.SiblingSet{ASNs: asns[i:end], Source: cluster.FeatureOIDW})
	}
	return b.Build(func(members []asnum.ASN) string {
		return fmt.Sprintf("Org v%d #%d", v, members[0])
	})
}

// TestReloadUnderFire hammers /v1/as/{asn} and /v1/stats from many
// goroutines while reloads continuously swap the snapshot. Run under
// -race this is the subsystem's core guarantee: no request ever
// observes a torn, empty, or inconsistent mapping mid-swap.
func TestReloadUnderFire(t *testing.T) {
	const (
		universe = 64
		readers  = 8
		reloads  = 50
	)
	var version atomic.Int64
	src := func(ctx context.Context) (*cluster.Mapping, error) {
		return variantMapping(int(version.Add(1)), universe), nil
	}
	snap, err := NewSnapshot(variantMapping(0, universe), "hammer")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(snap, Options{Prepared: mappingSource(src)})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic.Int64
	// lookups gets a non-blocking tick per successful lookup so the
	// reload loop can interleave every swap with live reads.
	lookups := make(chan struct{}, 1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				asn := i%universe + 1
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec,
					httptest.NewRequest("GET", fmt.Sprintf("/v1/as/%d", asn), nil))
				if rec.Code != http.StatusOK {
					t.Errorf("reader %d: AS%d -> %d (%s)", r, asn, rec.Code, rec.Body)
					return
				}
				var body struct {
					ASN      uint32   `json:"asn"`
					Siblings []uint32 `json:"siblings"`
					Org      struct {
						Size int      `json:"size"`
						ASNs []uint32 `json:"asns"`
					} `json:"org"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Errorf("reader %d: bad JSON: %v", r, err)
					return
				}
				// The response must be internally consistent: the
				// requested ASN appears among its own siblings and the
				// org view matches the sibling view exactly.
				found := false
				for _, s := range body.Siblings {
					if s == uint32(asn) {
						found = true
					}
				}
				if !found || len(body.Siblings) == 0 || len(body.Siblings) != body.Org.Size ||
					len(body.Siblings) != len(body.Org.ASNs) {
					t.Errorf("reader %d: torn response for AS%d: %+v", r, asn, body)
					return
				}

				// Interleave stats reads: θ must always be computable
				// and positive, org/ASN counts never zero.
				if i%7 == 0 {
					rec := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
					var st struct {
						Orgs  int     `json:"orgs"`
						ASNs  int     `json:"asns"`
						Theta float64 `json:"theta"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
						t.Errorf("reader %d: stats %d %v", r, rec.Code, err)
						return
					}
					if st.Orgs == 0 || st.ASNs != universe || st.Theta <= 0 {
						t.Errorf("reader %d: empty/torn stats %+v", r, st)
						return
					}
				}
				served.Add(1)
				select {
				case lookups <- struct{}{}:
				default:
				}
			}
		}(r)
	}

	timeout := time.After(30 * time.Second)
hammer:
	for i := 0; i < reloads; i++ {
		// Wait for at least one lookup to complete since the previous
		// swap, so every reload races against in-flight reads.
		select {
		case <-lookups:
		case <-timeout:
			t.Error("readers stalled before all reloads ran")
			break hammer
		}
		if _, err := srv.Reload(context.Background()); err != nil {
			t.Errorf("reload %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("no lookups served during the hammer")
	}
	ok, failed := srv.metrics.reloadOK.Load(), srv.metrics.reloadErr.Load()
	if ok != reloads || failed != 0 {
		t.Fatalf("reload counters = %d/%d, want %d/0", ok, failed, reloads)
	}
	// The final snapshot is the last published variant.
	if got := srv.Snapshot().Stats().ASNs; got != universe {
		t.Fatalf("final snapshot covers %d ASNs, want %d", got, universe)
	}
}

// TestReloadWhileShedding pins the limiter shut so /v1/search is
// actively refused, then reloads: /admin/reload is Critical-class and
// must succeed mid-shed, the new snapshot must serve, and the
// admission layer must carry its state (shed counters, adaptive
// limit, in-flight accounting) across the swap rather than resetting
// — a reload is a data refresh, not an amnesty for an overload.
func TestReloadWhileShedding(t *testing.T) {
	const universe = 32
	var version atomic.Int64
	src := func(ctx context.Context) (*cluster.Mapping, error) {
		return variantMapping(int(version.Add(1)), universe), nil
	}
	snap, err := NewSnapshot(variantMapping(0, universe), "shed-reload")
	if err != nil {
		t.Fatal(err)
	}
	var holding atomic.Bool
	gate := make(chan struct{})
	srv, err := NewServer(snap, Options{
		Prepared: mappingSource(src),
		Admission: &admission.Config{
			MaxInflight:     1,
			QueueDepth:      1,
			ShedSearchFirst: true,
		},
		testHold: func(endpoint string) {
			if holding.Load() && endpoint == "as" {
				<-gate
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Saturate: one pinned point lookup owns the only slot.
	holding.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/as/1", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("pinned lookup: status %d", rec.Code)
		}
	}()
	waitAdmission(t, srv, func(s admission.Stats) bool { return s.Inflight == 1 })

	// The limiter is actively shedding searches...
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?name=org", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("search while saturated: status %d Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	before := srv.Admission().Stats()
	oldSnap := srv.Snapshot()

	// ...and the reload must still go through, swapping the snapshot.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/admin/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reload while shedding: status %d body %s", rec.Code, rec.Body)
	}
	if srv.Snapshot() == oldSnap {
		t.Fatal("reload did not swap the snapshot")
	}

	// Admission state survived the swap: the shed is still on the
	// books, the pinned request still owns its slot, the limit did
	// not reset.
	after := srv.Admission().Stats()
	if after.ShedSearch != before.ShedSearch || after.Inflight != 1 || after.Limit != before.Limit {
		t.Fatalf("admission state reset across reload: before %+v after %+v", before, after)
	}

	// The new snapshot serves once the overload clears.
	close(gate)
	holding.Store(false)
	<-done
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?name=org", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("search after drain: status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/as/1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("lookup on reloaded snapshot: status %d", rec.Code)
	}
}

// TestConcurrentReloadsSerialize checks that racing /admin/reload posts
// serialize on the reload latch rather than interleaving swap sequences.
func TestConcurrentReloadsSerialize(t *testing.T) {
	const universe = 16
	var version atomic.Int64
	src := func(ctx context.Context) (*cluster.Mapping, error) {
		return variantMapping(int(version.Add(1)), universe), nil
	}
	snap, err := NewSnapshot(variantMapping(0, universe), "latch")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(snap, Options{Prepared: mappingSource(src)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Reload(context.Background()); err != nil {
				t.Errorf("reload: %v", err)
			}
		}()
	}
	wg.Wait()
	ok, failed := srv.metrics.reloadOK.Load(), srv.metrics.reloadErr.Load()
	if ok != 16 || failed != 0 {
		t.Fatalf("reload counters = %d/%d, want 16/0", ok, failed)
	}
}
