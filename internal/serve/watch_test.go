package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/mapdiff"
)

// readSSEEvent reads one complete Server-Sent Event off the stream,
// skipping keep-alive comments.
func readSSEEvent(t *testing.T, sc *bufio.Scanner) (event string, data []byte) {
	t.Helper()
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" {
				return event, data
			}
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = []byte(line[len("data: "):])
		}
	}
	t.Fatalf("SSE stream ended early (err %v)", sc.Err())
	return "", nil
}

// normalizeDelta round-trips a delta through its JSON wire form, which
// is what a watch subscriber receives (cluster IDs do not travel).
func normalizeDelta(t *testing.T, d *mapdiff.Delta) *mapdiff.Delta {
	t.Helper()
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var out mapdiff.Delta
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestWatchAcrossDeltaReload is the end-to-end contract: a /v1/watch
// subscriber receives the exact mapdiff edit script of a delta reload
// — the parsed delta itself, not a recomputed approximation — as one
// SSE event, across a real HTTP stream.
func TestWatchAcrossDeltaReload(t *testing.T) {
	const n = 32
	base := variantMapping(0, n)
	next := variantMapping(1, n)
	delta := mapdiff.ComputeDelta(base, next)
	if delta.Empty() {
		t.Fatal("test deltas must not be empty")
	}
	srv, err := NewServer(mustSnapshot(t, base), Options{
		DeltaSource: func(ctx context.Context) (*mapdiff.Delta, error) {
			return delta, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	// The hello event proves the subscription is live before the
	// reload fires — no publish/subscribe race.
	event, data := readSSEEvent(t, sc)
	if event != "hello" {
		t.Fatalf("first event = %q, want hello", event)
	}
	var hello WatchEvent
	if err := json.Unmarshal(data, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Seq != 0 || hello.ContentHash != srv.Snapshot().ContentHash() {
		t.Fatalf("hello = %+v, want seq 0 hash %s", hello, srv.Snapshot().ContentHash())
	}

	rr, err := http.Post(ts.URL+"/admin/reload?mode=delta", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("delta reload status = %d", rr.StatusCode)
	}

	event, data = readSSEEvent(t, sc)
	if event != "reload" {
		t.Fatalf("second event = %q, want reload", event)
	}
	var ev WatchEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 1 {
		t.Errorf("reload seq = %d, want 1", ev.Seq)
	}
	if ev.Mode != LoadModeDelta {
		t.Errorf("reload mode = %q, want %q", ev.Mode, LoadModeDelta)
	}
	if ev.ContentHash != srv.Snapshot().ContentHash() {
		t.Errorf("reload hash = %q, want the new snapshot's %q", ev.ContentHash, srv.Snapshot().ContentHash())
	}
	if ev.Delta == nil {
		t.Fatal("reload event carries no delta")
	}
	if want := normalizeDelta(t, delta); !reflect.DeepEqual(ev.Delta, want) {
		t.Errorf("delta over the wire differs from the applied edit script:\n  got:  %+v\n  want: %+v", ev.Delta, want)
	}
}

// TestWatchFullReloadComputesDelta covers the other publish path: a
// full reload has no parsed delta, so the server diffs old vs new
// itself — but only because a watcher is connected.
func TestWatchFullReloadComputesDelta(t *testing.T) {
	const n = 24
	v := 0
	srv, err := NewServer(mustSnapshot(t, variantMapping(0, n)), Options{
		Prepared: mappingSource(func(ctx context.Context) (*cluster.Mapping, error) {
			return variantMapping(v, n), nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if event, _ := readSSEEvent(t, sc); event != "hello" {
		t.Fatalf("first event = %q, want hello", event)
	}

	old := srv.Snapshot().Mapping()
	v = 2
	if _, err := srv.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, data := readSSEEvent(t, sc)
	var ev WatchEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Delta == nil {
		t.Fatal("full-reload watch event carries no delta")
	}
	want := normalizeDelta(t, mapdiff.ComputeDelta(old, srv.Snapshot().Mapping()))
	if !reflect.DeepEqual(ev.Delta, want) {
		t.Errorf("computed delta differs:\n  got:  %+v\n  want: %+v", ev.Delta, want)
	}
}

// TestWatchSlowConsumerEviction exercises the hub directly: a
// subscriber whose queue is full when an event lands is evicted —
// publish never blocks the snapshot swap on a stalled stream.
func TestWatchSlowConsumerEviction(t *testing.T) {
	h := newWatchHub(1)
	snap := mustSnapshot(t, testMapping(t))
	stalled, _, _, err := h.subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	healthy, _, _, err := h.subscribe(0)
	if err != nil {
		t.Fatal(err)
	}

	h.publish(snap, nil) // fills both queues (depth 1)
	ev1 := <-healthy.ch  // healthy drains; stalled does not
	// publish is synchronous and non-blocking by construction: if a
	// stalled subscriber could wedge it, this call would hang the test.
	h.publish(snap, nil)
	ev2, ok := <-healthy.ch
	if !ok || ev1.Seq != 1 || ev2.Seq != 2 {
		t.Fatalf("healthy subscriber got seqs %d, %d (ok %v), want 1, 2", ev1.Seq, ev2.Seq, ok)
	}

	// The stalled subscriber still drains its buffered event, then
	// sees its channel closed.
	if ev := <-stalled.ch; ev.Seq != 1 {
		t.Fatalf("stalled subscriber's buffered event seq = %d, want 1", ev.Seq)
	}
	if _, ok := <-stalled.ch; ok {
		t.Fatal("stalled subscriber's channel not closed after eviction")
	}
	if !stalled.evicted {
		t.Error("stalled subscriber not marked evicted")
	}
	if got := h.evictions.Load(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := h.subscribers(); got != 1 {
		t.Errorf("subscribers after eviction = %d, want 1", got)
	}
}

// TestWatchResume reconnects with ?since= and receives the missed
// events from the replay ring before any live ones.
func TestWatchResume(t *testing.T) {
	const n = 24
	v := 0
	srv, err := NewServer(mustSnapshot(t, variantMapping(0, n)), Options{
		Prepared: mappingSource(func(ctx context.Context) (*cluster.Mapping, error) {
			return variantMapping(v, n), nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// First subscriber activates the hub, observes two reloads, drops.
	resp, err := http.Get(ts.URL + "/v1/watch")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	readSSEEvent(t, sc) // hello
	for _, variant := range []int{1, 2} {
		v = variant
		if _, err := srv.Reload(context.Background()); err != nil {
			t.Fatal(err)
		}
		readSSEEvent(t, sc)
	}
	resp.Body.Close()

	// Second subscriber resumes after seq 1: the ring replays seq 2.
	resp2, err := http.Get(ts.URL + "/v1/watch?since=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	sc2.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	event, data := readSSEEvent(t, sc2)
	if event != "hello" {
		t.Fatalf("first event = %q, want hello", event)
	}
	var hello WatchEvent
	if err := json.Unmarshal(data, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Seq != 2 {
		t.Errorf("hello seq = %d, want 2", hello.Seq)
	}
	event, data = readSSEEvent(t, sc2)
	if event != "reload" {
		t.Fatalf("replayed event = %q, want reload", event)
	}
	var ev WatchEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 2 || ev.Delta == nil {
		t.Errorf("replayed event = seq %d delta nil? %v, want seq 2 with delta", ev.Seq, ev.Delta == nil)
	}
}

// TestWatchInvalidSince rejects garbage resume points up front.
func TestWatchInvalidSince(t *testing.T) {
	srv := newTestServer(t, Options{})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/watch?since=banana", nil)
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if srv.WatchSubscribers() != 0 {
		t.Error("rejected request left a subscription behind")
	}
}

// TestWatchShutdownDrains: cancelling the serve context must end open
// watch streams so the graceful drain terminates — a held-open SSE
// stream must not wedge shutdown for the full drain timeout.
func TestWatchShutdownDrains(t *testing.T) {
	srv := newTestServer(t, Options{RequestTimeout: 30 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.ServeListener(ctx, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if event, _ := readSSEEvent(t, sc); event != "hello" {
		t.Fatalf("first event = %q, want hello", event)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeListener returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not drain with an open watch stream")
	}
	// The stream ended cleanly from the client's point of view.
	for sc.Scan() {
	}
	if srv.WatchSubscribers() != 0 {
		t.Error("watch subscription survived shutdown")
	}
}
