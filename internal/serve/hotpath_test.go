package serve

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/mapdiff"
)

// TestParallelSnapshotBuildEquivalence: builds of one mapping running
// at once on several goroutines agree with each other and with the
// mapping's organizations added by a delta to an empty snapshot, the
// other route to the one token-index builder. Under -race it also
// shows that a build only reads the mapping it shares.
func TestParallelSnapshotBuildEquivalence(t *testing.T) {
	m := variantMapping(3, 4096)
	now := time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC)
	builds := make([]*Snapshot, 8)
	errs := make([]error, len(builds))
	var wg sync.WaitGroup
	for i := range builds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			builds[i], errs[i] = NewSnapshot(m, "parallel")
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
	}
	for _, s := range builds[1:] {
		snapEqual(t, builds[0], s)
	}
	// The health is hashed, and a patch keeps its base's.
	empty := &Snapshot{health: Health{Status: HealthOK}}
	patched, err := empty.applyDeltaAt(&mapdiff.Delta{Added: m.Clusters}, now)
	if err != nil {
		t.Fatal(err)
	}
	snapEqual(t, builds[0], patched)
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

// discardWriter is a ResponseWriter that keeps one header map and
// drops the body, so a handler's own allocations are all that counts.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestHandlerAllocs bounds what a /v1/as request costs through
// Server.Handler with no logger set: routing, the per-request timeout,
// the status writer and the rendered body, but no request record,
// which is built only when a logger takes it.
func TestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool items, inflating alloc counts")
	}
	srv, err := NewServer(mustSnapshot(t, variantMapping(2, 4096)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	req := httptest.NewRequest("GET", "/v1/as/1", nil)
	w := &discardWriter{h: make(http.Header)}
	for i := 0; i < 8; i++ { // prime the response buffer pool
		h.ServeHTTP(w, req)
	}
	if got := testing.AllocsPerRun(1000, func() { h.ServeHTTP(w, req) }); got > 8 {
		t.Fatalf("/v1/as allocates %v times per request, want <= 8", got)
	}
}

// TestRequestLogLine: with a logger set, each request logs one JSON
// record: message "request", with the endpoint, method, path, status
// and duration operators parse. A path whose query is not UTF-8, sent
// over a real connection, still logs valid JSON.
func TestRequestLogLine(t *testing.T) {
	var log logBuffer
	srv := newTestServer(t, Options{
		now:    func() time.Time { return time.Unix(1_700_000_000, 0) },
		Logger: log.logger(),
	})
	do(t, srv, "GET", "/v1/as/3356?x=1", nil)
	recs := log.records(t)
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1: %v", len(recs), recs)
	}
	delete(recs[0], "time")
	want := map[string]any{"level": "INFO", "msg": "request", "endpoint": "as", "method": "GET",
		"path": "/v1/as/3356?x=1", "status": 200.0, "duration_us": 0.0}
	if !reflect.DeepEqual(recs[0], want) {
		t.Fatalf("record = %v, want %v", recs[0], want)
	}

	ts := httptest.NewServer(srv.Handler())
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET /v1/search?name=\xff\xfe HTTP/1.1\r\nHost: borgesd\r\nConnection: close\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	resp, err := io.ReadAll(conn)
	conn.Close()
	ts.Close() // waits for the handler, and so for its record
	if err != nil || !strings.HasPrefix(string(resp), "HTTP/1.1 200 ") {
		t.Fatalf("raw search: %v\n%s", err, resp)
	}
	lines := log.lines()
	if len(lines) != 2 {
		t.Fatalf("%d log lines after the raw search, want 2:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Errorf("log line is not JSON: %s", line)
		}
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

// TestParallelBuildDuringConcurrentReloads is a -race sweep: hot
// reloads, each building its snapshot with NewSnapshot, race live point
// lookups rendered from the serving snapshot.
func TestParallelBuildDuringConcurrentReloads(t *testing.T) {
	const universe = 512
	snap, err := NewSnapshot(variantMapping(0, universe), "par-reload")
	if err != nil {
		t.Fatal(err)
	}
	var version int
	srv, err := NewServer(snap, Options{
		Prepared: func(ctx context.Context) (*Snapshot, error) {
			version++
			return NewSnapshot(variantMapping(version, universe), "par-reload")
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
