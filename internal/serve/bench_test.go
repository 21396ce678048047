package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
)

// benchSnapshot serves a 4096-network universe grouped into
// organizations of mixed sizes — large enough that lookups miss caches,
// small enough to build instantly.
func benchSnapshot(b *testing.B) *Snapshot {
	b.Helper()
	snap, err := NewSnapshot(variantMapping(3, 4096), "bench")
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

// BenchmarkSnapshotLookup measures the in-process lookup path: one
// atomic snapshot load plus the ASN index hit.
func BenchmarkSnapshotLookup(b *testing.B) {
	snap := benchSnapshot(b)
	srv, err := NewServer(snap, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, ok := srv.Snapshot().Lookup(asnum.ASN(i%4096 + 1)); !ok {
				b.Errorf("AS%d unmapped", i%4096+1)
				return
			}
		}
	})
}

// BenchmarkSnapshotLookupHTTP measures concurrent GET /v1/as/{asn}
// against a real httptest.Server over TCP — the end-to-end serving
// path (routing, handler, JSON encoding, metrics observation). This is
// the anchor number for future serving-layer optimisation PRs.
func BenchmarkSnapshotLookupHTTP(b *testing.B) {
	snap := benchSnapshot(b)
	srv, err := NewServer(snap, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: 256}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			resp, err := client.Get(fmt.Sprintf("%s/v1/as/%d", ts.URL, i%4096+1))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
}
