package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/serve"
)

// newBackend starts a real borgesd handler over the small fixed
// mapping: Lumen {209,3356,3549} and Claro Chile {27995}; 64512 is
// absent from the universe, so it resolves as unmapped.
func newBackend(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	b := cluster.NewBuilder()
	b.AddUniverse(209, 3356, 3549, 27995)
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{209, 3356, 3549}, Source: cluster.FeatureOIDW})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{27995}, Source: cluster.FeatureOIDW})
	m := b.Build(func(members []asnum.ASN) string {
		if members[0] == 27995 {
			return "Claro Chile"
		}
		return "Lumen Technologies"
	})
	snap, err := serve.NewSnapshot(m, "client-test")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// waitSubscribed blocks until the server sees a live /v1/watch stream
// — events published before the subscription would not be delivered.
func waitSubscribed(t *testing.T, srv *serve.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.WatchSubscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watch never connected")
		}
		time.Sleep(time.Millisecond)
	}
}

// scrapeCounter reads one unlabelled sample from the server's /metrics,
// as an operator would.
func scrapeCounter(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s sample", name)
	return 0
}

func newTestClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestLookupBatching: concurrent Lookup calls must coalesce into far
// fewer /v1/bulk requests than lookups, and every caller still gets
// its own correct answer.
func TestLookupBatching(t *testing.T) {
	_, ts := newBackend(t, serve.Options{})
	c := newTestClient(t, Config{BaseURL: ts.URL, BatchDelay: 20 * time.Millisecond})

	const callers = 64
	asns := []uint32{209, 3356, 3549, 27995}
	var wg sync.WaitGroup
	errs := make([]error, callers)
	orgs := make([]*Org, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			orgs[i], errs[i] = c.Lookup(context.Background(), asns[i%len(asns)])
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("lookup %d: %v", i, errs[i])
		}
		want := "Lumen Technologies"
		if asns[i%len(asns)] == 27995 {
			want = "Claro Chile"
		}
		if orgs[i] == nil || orgs[i].Name != want {
			t.Fatalf("lookup %d: org = %+v, want %s", i, orgs[i], want)
		}
	}
	requests := scrapeCounter(t, ts.URL, "borgesd_bulk_requests_total")
	lines := scrapeCounter(t, ts.URL, "borgesd_bulk_lines_total")
	if lines != callers {
		t.Errorf("server saw %d bulk lines, want %d", lines, callers)
	}
	if requests >= callers/2 {
		t.Errorf("batching ineffective: %d bulk requests for %d lookups", requests, callers)
	}
}

// TestLookupUnmapped maps the server's per-line miss to ErrUnmapped.
func TestLookupUnmapped(t *testing.T) {
	_, ts := newBackend(t, serve.Options{})
	c := newTestClient(t, Config{BaseURL: ts.URL, BatchDelay: time.Millisecond})
	if _, err := c.Lookup(context.Background(), 64512); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("unmapped lookup error = %v, want ErrUnmapped", err)
	}
}

// TestBulkOrder: results come back positionally, including misses.
func TestBulkOrder(t *testing.T) {
	_, ts := newBackend(t, serve.Options{})
	c := newTestClient(t, Config{BaseURL: ts.URL})
	in := []uint32{3549, 64512, 27995, 209}
	results, err := c.Bulk(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(in) {
		t.Fatalf("got %d results, want %d", len(results), len(in))
	}
	var got []uint32
	for _, r := range results {
		got = append(got, r.ASN)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("result order %v, want %v", got, in)
	}
	if results[1].Err() != ErrUnmapped || results[0].Err() != nil {
		t.Fatalf("per-line errors wrong: %v, %v", results[0].Err(), results[1].Err())
	}
	if results[2].Org == nil || results[2].Org.Name != "Claro Chile" {
		t.Fatalf("results[2].Org = %+v", results[2].Org)
	}
	if !reflect.DeepEqual(results[0].Siblings, []uint32{209, 3356, 3549}) {
		t.Fatalf("siblings = %v", results[0].Siblings)
	}
}

// TestRetryAfterBackoff: a 503 carrying Retry-After must make the
// client sleep what the server asked (modulo the policy's 20% spread),
// then succeed on the retry — the full shed protocol, server header to
// client sleep.
func TestRetryAfterBackoff(t *testing.T) {
	_, real := newBackend(t, serve.Options{})
	var calls atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		r2, err := http.NewRequest(r.Method, real.URL+r.URL.String(), r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(r2)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		for {
			var buf [4096]byte
			n, rerr := resp.Body.Read(buf[:])
			if n > 0 {
				w.Write(buf[:n])
			}
			if rerr != nil {
				return
			}
		}
	}))
	defer proxy.Close()

	var slept []time.Duration
	c := newTestClient(t, Config{
		BaseURL: proxy.URL,
		sleepFn: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	})
	results, err := c.Bulk(context.Background(), []uint32{3356})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err() != nil {
		t.Fatalf("results after retry = %+v", results)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (shed + retry)", got)
	}
	if len(slept) != 1 {
		t.Fatalf("client slept %d times (%v), want once", len(slept), slept)
	}
	// hint=3s, default jitter 0.2 → d ∈ [2.4s, 3s].
	if slept[0] < 2400*time.Millisecond || slept[0] > 3*time.Second {
		t.Errorf("backoff = %v, want within [2.4s, 3s] of the Retry-After hint", slept[0])
	}
}

// TestBulkNonRetryableStatus: a 404 is not transient and must not be
// retried.
func TestBulkNonRetryableStatus(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()
	c := newTestClient(t, Config{BaseURL: ts.URL, sleepFn: func(context.Context, time.Duration) error { return nil }})
	if _, err := c.Bulk(context.Background(), []uint32{1}); err == nil {
		t.Fatal("404 produced no error")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retry on 404)", got)
	}
}

// TestClientClosed: Close is idempotent and later Lookups refuse.
func TestClientClosed(t *testing.T) {
	_, ts := newBackend(t, serve.Options{})
	c, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close()
	if _, err := c.Lookup(context.Background(), 3356); !errors.Is(err, ErrClosed) {
		t.Fatalf("lookup after close = %v, want ErrClosed", err)
	}
}

// TestWatchClient follows a real server's reload stream, then stops on
// context cancellation.
func TestWatchClient(t *testing.T) {
	const n = 24
	v := 0
	b := func() *cluster.Mapping {
		bld := cluster.NewBuilder()
		for a := 1; a <= n; a++ {
			bld.AddUniverse(asnum.ASN(a))
		}
		run := v%3 + 2
		for i := 0; i < n; i += run {
			end := min(i+run, n)
			set := cluster.SiblingSet{Source: cluster.FeatureOIDW}
			for a := i + 1; a <= end; a++ {
				set.ASNs = append(set.ASNs, asnum.ASN(a))
			}
			bld.Add(set)
		}
		return bld.Build(func(members []asnum.ASN) string {
			return fmt.Sprintf("Org v%d #%d", v, members[0])
		})
	}
	snap, err := serve.NewSnapshot(b(), "watch-test")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(snap, serve.Options{
		Prepared: func(ctx context.Context) (*serve.Snapshot, error) { return serve.NewSnapshot(b(), "watch-test") },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := newTestClient(t, Config{BaseURL: ts.URL})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := make(chan *WatchEvent, 8)
	watchErr := make(chan error, 1)
	go func() {
		watchErr <- c.Watch(ctx, 0, func(ev *WatchEvent) error {
			events <- ev
			return nil
		})
	}()

	waitSubscribed(t, srv)
	v = 1
	if _, err := srv.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Seq != 1 || ev.Delta == nil {
			t.Fatalf("event = %+v, want seq 1 with delta", ev)
		}
		if ev.ContentHash != srv.Snapshot().ContentHash() {
			t.Fatalf("event hash %q, want %q", ev.ContentHash, srv.Snapshot().ContentHash())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reload event never delivered")
	}

	cancel()
	select {
	case err := <-watchErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Watch returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Watch did not return after cancel")
	}
}

// TestWatchCallbackError: fn's error stops the watch and surfaces.
func TestWatchCallbackError(t *testing.T) {
	const n = 12
	v := 0
	build := func() *cluster.Mapping {
		bld := cluster.NewBuilder()
		for a := 1; a <= n; a++ {
			bld.AddUniverse(asnum.ASN(a))
		}
		bld.Add(cluster.SiblingSet{ASNs: []asnum.ASN{1, asnum.ASN(2 + v%2)}, Source: cluster.FeatureOIDW})
		return bld.Build(func(members []asnum.ASN) string { return fmt.Sprintf("Org v%d", v) })
	}
	snap, err := serve.NewSnapshot(build(), "watch-test")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(snap, serve.Options{
		Prepared: func(ctx context.Context) (*serve.Snapshot, error) { return serve.NewSnapshot(build(), "watch-test") },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := newTestClient(t, Config{BaseURL: ts.URL})
	stop := errors.New("stop here")
	watchErr := make(chan error, 1)
	go func() {
		watchErr <- c.Watch(context.Background(), 0, func(ev *WatchEvent) error {
			return stop
		})
	}()
	waitSubscribed(t, srv)
	v = 1
	if _, err := srv.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-watchErr:
		if !errors.Is(err, stop) {
			t.Fatalf("Watch returned %v, want the callback's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Watch did not stop on callback error")
	}
}
