package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/faultinject"
	"github.com/nu-aqualab/borges/internal/serve"
)

// fleetMapping builds one of three known mapping versions so tests can
// publish a sequence of distinct snapshots with small deltas between
// them:
//
//	v1: Lumen {209, 3356, 3549}, Claro Chile {27995}, Claro PR {10396, 14638}
//	v2: Lumen unchanged, the Claro orgs merged {27995, 10396, 14638}
//	v3: Lumen grows 63999, Claro stays merged
func fleetMapping(t testing.TB, version int) *cluster.Mapping {
	t.Helper()
	b := cluster.NewBuilder()
	b.AddUniverse(209, 3356, 3549, 27995, 10396, 14638, 63999)
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{27995}, Source: cluster.FeatureOIDW})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{10396, 14638}, Source: cluster.FeatureOIDW})
	switch version {
	case 1:
		b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{209, 3356, 3549}, Source: cluster.FeatureOIDW})
	case 2:
		b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{209, 3356, 3549}, Source: cluster.FeatureOIDW})
		b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{27995, 10396, 14638}, Source: cluster.FeatureOIDW})
	case 3:
		b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{209, 3356, 3549, 63999}, Source: cluster.FeatureOIDW})
		b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{27995, 10396, 14638}, Source: cluster.FeatureOIDW})
	default:
		t.Fatalf("unknown mapping version %d", version)
	}
	names := map[asnum.ASN]string{
		3356:  "Lumen Technologies",
		27995: "Claro Chile",
		10396: "Claro Puerto Rico",
	}
	return b.Build(func(members []asnum.ASN) string {
		for _, a := range members {
			if n, ok := names[a]; ok {
				return n
			}
		}
		return ""
	})
}

func mustSnapshot(t testing.TB, m *cluster.Mapping) *serve.Snapshot {
	t.Helper()
	s, err := serve.NewSnapshot(m, "test")
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	return s
}

// testDist is a distributor under test: its reload source builds
// whichever mapping version td.ver names, so td.publish(v) drives a
// real reload→swap→publish cycle. td.flap simulates a distributor
// outage: while set, every request — manifest, artifact, watch,
// heartbeat — answers 503.
type testDist struct {
	dist *Distributor
	ts   *httptest.Server
	ver  atomic.Int64
	flap atomic.Bool

	mu        sync.Mutex
	published map[string]bool // every content hash ever published
}

func newTestDist(t *testing.T) *testDist {
	t.Helper()
	td := &testDist{published: make(map[string]bool)}
	td.ver.Store(1)
	src := func(ctx context.Context) (*serve.Snapshot, error) {
		return serve.NewSnapshot(fleetMapping(t, int(td.ver.Load())), "test")
	}
	dist, err := NewDistributor(mustSnapshot(t, fleetMapping(t, 1)), serve.Options{Prepared: src}, DistributorOptions{})
	if err != nil {
		t.Fatalf("NewDistributor: %v", err)
	}
	td.dist = dist
	td.published[dist.Manifest().ContentHash] = true
	inner := dist.Handler()
	td.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if td.flap.Load() {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "distributor flapping", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(td.ts.Close)
	return td
}

// publish switches the source mapping to version v and reloads the
// distributor's server, which republishes through OnSwap. Returns the
// new content hash.
func (td *testDist) publish(t *testing.T, v int) string {
	t.Helper()
	td.ver.Store(int64(v))
	if _, err := td.dist.Server().Reload(context.Background()); err != nil {
		t.Fatalf("reload to v%d: %v", v, err)
	}
	h := td.dist.Manifest().ContentHash
	td.mu.Lock()
	td.published[h] = true
	td.mu.Unlock()
	return h
}

func (td *testDist) wasPublished(hash string) bool {
	td.mu.Lock()
	defer td.mu.Unlock()
	return td.published[hash]
}

// replicaOpts is the shared test tuning: short intervals, deterministic
// retry jitter, fast breaker recovery.
func replicaOpts(id, baseURL, dir string) ReplicaOptions {
	return ReplicaOptions{
		ID:                id,
		Distributor:       baseURL,
		LastGood:          filepath.Join(dir, "lastgood.snapbin"),
		PollInterval:      30 * time.Millisecond,
		HeartbeatInterval: 30 * time.Millisecond,
		MaxAttempts:       6,
		RetryBaseDelay:    time.Millisecond,
		RetrySeed:         42,
		BreakerThreshold:  5,
		BreakerCooldown:   20 * time.Millisecond,
	}
}

// pathFaults routes requests for exactly one URL path through a
// fault-injecting transport and everything else through the clean
// inner transport, so chaos can corrupt artifact fetches without
// breaking the manifest/watch/heartbeat control plane.
type pathFaults struct {
	inner http.RoundTripper
	fault http.RoundTripper
	path  string
}

func (p *pathFaults) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == p.path {
		return p.fault.RoundTrip(req)
	}
	return p.inner.RoundTrip(req)
}

// faultyClient returns an *http.Client whose requests to path are
// faulted under cfg (first attempt per key unless PersistentRate says
// otherwise) and whose other requests pass through untouched.
func faultyClient(path string, cfg faultinject.Config) *http.Client {
	return &http.Client{Transport: &pathFaults{
		inner: http.DefaultTransport,
		fault: faultinject.NewTransport(http.DefaultTransport, cfg),
		path:  path,
	}}
}

// flipNameByte corrupts every response to path by inverting the first
// byte of its first "name" value. A name is covered by the snapshot's
// content hash, and the inverted byte is invalid UTF-8 that the JSON
// decoder turns into U+FFFD, so a corrupted mapping delta still parses
// and applies, and only the patched snapshot's hash check refuses it.
// (faultinject's KindFlipByte picks its offset from the host:port, and
// on some httptest ports it lands in the "features" key of an OID_W
// org: ReadDelta ignores the unknown key, defaults to OID_W, and the
// patched snapshot is correctly accepted.)
type flipNameByte struct {
	inner http.RoundTripper
	path  string
}

func (f *flipNameByte) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.inner.RoundTrip(req)
	if err != nil || req.URL.Path != f.path || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	at := bytes.Index(body, []byte(`"name":"`))
	if at < 0 {
		return nil, fmt.Errorf("flipNameByte: no name in the %s response", f.path)
	}
	body[at+len(`"name":"`)] ^= 0xFF
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// countingTransport counts round trips, so a test can prove a cold
// start needed zero network.
type countingTransport struct {
	inner http.RoundTripper
	n     atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.inner.RoundTrip(req)
}

func waitFor(t *testing.T, d time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

func lastGoodHash(t *testing.T, path string) string {
	t.Helper()
	snap, err := serve.LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("loading last-good %s: %v", path, err)
	}
	return snap.ContentHash()
}

func TestDistributorManifestAndRangedFetch(t *testing.T) {
	td := newTestDist(t)

	resp, err := http.Get(td.ts.URL + PathManifest)
	if err != nil {
		t.Fatalf("GET manifest: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	man, err := ParseManifest(body)
	if err != nil {
		t.Fatalf("ParseManifest: %v", err)
	}
	if man.Seq != 1 || man.Delta != nil {
		t.Fatalf("initial manifest = %+v, want seq 1 and no delta", man)
	}

	resp, err = http.Get(td.ts.URL + man.SnapshotURL)
	if err != nil {
		t.Fatalf("GET snapshot: %v", err)
	}
	artifact, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if int64(len(artifact)) != man.Size {
		t.Fatalf("artifact is %d bytes, manifest says %d", len(artifact), man.Size)
	}
	snap, err := serve.LoadSnapshot(bytes.NewReader(artifact))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if snap.ContentHash() != man.ContentHash {
		t.Fatalf("artifact hash %s != manifest %s", snap.ContentHash(), man.ContentHash)
	}

	// Ranged request resumes mid-artifact.
	req, _ := http.NewRequest(http.MethodGet, td.ts.URL+man.SnapshotURL, nil)
	req.Header.Set("Range", "bytes=10-")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("ranged GET: %v", err)
	}
	tail, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("ranged GET status = %d, want 206", resp.StatusCode)
	}
	if !bytes.Equal(tail, artifact[10:]) {
		t.Fatalf("ranged bytes diverge from artifact suffix")
	}

	// Asking for a superseded version answers 410, never other bytes.
	resp, err = http.Get(td.ts.URL + PathSnapshot + "?hash=" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatalf("stale-hash GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stale-hash GET status = %d, want 410", resp.StatusCode)
	}
}

func TestDistributorPublishSequenceAndDelta(t *testing.T) {
	td := newTestDist(t)
	v1 := td.dist.Manifest().ContentHash

	v2 := td.publish(t, 2)
	man := td.dist.Manifest()
	if man.Seq != 2 || man.ContentHash == v1 {
		t.Fatalf("after publish: %+v, want seq 2 and a new hash", man)
	}
	if man.Delta == nil || man.Delta.BaseHash != v1 {
		t.Fatalf("delta = %+v, want base %s", man.Delta, v1)
	}

	resp, err := http.Get(td.ts.URL + man.Delta.URL)
	if err != nil {
		t.Fatalf("GET delta: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET delta status = %d, want 200", resp.StatusCode)
	}

	// Wrong base answers 410: a delta is only valid from its exact base.
	resp, err = http.Get(td.ts.URL + PathDelta + "?base=" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatalf("wrong-base GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("wrong-base GET status = %d, want 410", resp.StatusCode)
	}

	// Reloading identical content does not republish: same hash, same seq.
	if got := td.publish(t, 2); got != v2 {
		t.Fatalf("republish changed hash: %s != %s", got, v2)
	}
	if man := td.dist.Manifest(); man.Seq != 2 {
		t.Fatalf("republish bumped seq to %d, want 2", man.Seq)
	}
}

func TestDistributorHeartbeatAndStatus(t *testing.T) {
	td := newTestDist(t)
	cur := td.dist.Manifest().ContentHash

	post := func(hb Heartbeat) *http.Response {
		t.Helper()
		body, _ := json.Marshal(hb)
		resp, err := http.Post(td.ts.URL+PathHeartbeat, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST heartbeat: %v", err)
		}
		return resp
	}

	resp := post(Heartbeat{ID: "r1", Seq: 1, ContentHash: cur, Addr: ":9001"})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat status = %d, want 200", resp.StatusCode)
	}
	if man, err := ParseManifest(body); err != nil || man.ContentHash != cur {
		t.Fatalf("heartbeat response manifest = %+v (%v), want current hash", man, err)
	}

	resp = post(Heartbeat{ID: "r2", Seq: 0, ContentHash: strings.Repeat("f", 64)})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	st := td.dist.Status()
	if len(st.Replicas) != 2 || st.Divergent != 1 {
		t.Fatalf("status = %+v, want 2 replicas with 1 divergent", st)
	}
	if st.Replicas[0].ID != "r1" || st.Replicas[0].Divergent {
		t.Fatalf("r1 row = %+v, want converged", st.Replicas[0])
	}
	if st.Replicas[1].ID != "r2" || !st.Replicas[1].Divergent {
		t.Fatalf("r2 row = %+v, want divergent", st.Replicas[1])
	}

	// Malformed heartbeats answer 400 with a typed-parse error, never 5xx.
	resp, err := http.Post(td.ts.URL+PathHeartbeat, "application/json", strings.NewReader(`{"id":`))
	if err != nil {
		t.Fatalf("POST malformed heartbeat: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed heartbeat status = %d, want 400", resp.StatusCode)
	}
}

func TestReplicaColdStartFetchThenDeltaSync(t *testing.T) {
	td := newTestDist(t)
	dir := t.TempDir()
	ctx := context.Background()

	rep, err := NewReplica(ctx, replicaOpts("r1", td.ts.URL, dir))
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	v1 := td.dist.Manifest().ContentHash
	if got := rep.Server().Snapshot().ContentHash(); got != v1 {
		t.Fatalf("cold start serves %s, want %s", got, v1)
	}
	if rep.fullFetches.Load() != 1 {
		t.Fatalf("fullFetches = %d, want 1", rep.fullFetches.Load())
	}
	if got := lastGoodHash(t, rep.opts.LastGood); got != v1 {
		t.Fatalf("last-good hash = %s, want %s", got, v1)
	}

	// Publish v2: the replica's hash matches the delta base, so sync
	// takes the incremental path and never re-downloads the artifact.
	v2 := td.publish(t, 2)
	if err := rep.syncOnce(ctx); err != nil {
		t.Fatalf("syncOnce: %v", err)
	}
	if got := rep.Server().Snapshot().ContentHash(); got != v2 {
		t.Fatalf("after sync serving %s, want %s", got, v2)
	}
	if rep.deltaFetches.Load() != 1 || rep.fullFetches.Load() != 1 {
		t.Fatalf("deltaFetches = %d fullFetches = %d, want 1 and 1",
			rep.deltaFetches.Load(), rep.fullFetches.Load())
	}
	if rep.SyncedSeq() != 2 {
		t.Fatalf("SyncedSeq = %d, want 2", rep.SyncedSeq())
	}
	// The delta path persists last-good too: a crash right now must
	// cold-start at v2, not v1.
	if got := lastGoodHash(t, rep.opts.LastGood); got != v2 {
		t.Fatalf("last-good after delta sync = %s, want %s", got, v2)
	}
}

func TestReplicaDeltaBaseMismatchTakesFullFetch(t *testing.T) {
	td := newTestDist(t)
	dir := t.TempDir()
	ctx := context.Background()

	rep, err := NewReplica(ctx, replicaOpts("r1", td.ts.URL, dir))
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	// Two publishes while the replica isn't looking: the current delta's
	// base is v2, the replica is at v1 — the delta cannot apply, so sync
	// must go straight to the full artifact.
	td.publish(t, 2)
	v3 := td.publish(t, 3)
	if err := rep.syncOnce(ctx); err != nil {
		t.Fatalf("syncOnce: %v", err)
	}
	if got := rep.Server().Snapshot().ContentHash(); got != v3 {
		t.Fatalf("serving %s, want %s", got, v3)
	}
	if rep.deltaFetches.Load() != 0 || rep.fullFetches.Load() != 2 {
		t.Fatalf("deltaFetches = %d fullFetches = %d, want 0 and 2",
			rep.deltaFetches.Load(), rep.fullFetches.Load())
	}
}

func TestReplicaCorruptDeltaFallsBackToFull(t *testing.T) {
	td := newTestDist(t)
	dir := t.TempDir()
	ctx := context.Background()

	// Every delta fetch is corrupted persistently; everything else is
	// clean. The delta path must exhaust its retries without ever
	// swapping a bad snapshot in, then fall back to the full artifact.
	opts := replicaOpts("r1", td.ts.URL, dir)
	opts.MaxAttempts = 2
	opts.HTTPClient = &http.Client{Transport: &flipNameByte{inner: http.DefaultTransport, path: PathDelta}}
	rep, err := NewReplica(ctx, opts)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	v2 := td.publish(t, 2)
	if err := rep.syncOnce(ctx); err != nil {
		t.Fatalf("syncOnce: %v", err)
	}
	if got := rep.Server().Snapshot().ContentHash(); got != v2 {
		t.Fatalf("serving %s, want %s", got, v2)
	}
	if rep.deltaFallbacks.Load() != 1 {
		t.Fatalf("deltaFallbacks = %d, want 1", rep.deltaFallbacks.Load())
	}
	if rep.corruptRejected.Load() == 0 {
		t.Fatal("the corrupt delta was not refused by the content-hash check")
	}
	if rep.deltaFetches.Load() != 0 || rep.fullFetches.Load() != 2 {
		t.Fatalf("deltaFetches = %d fullFetches = %d, want 0 and 2",
			rep.deltaFetches.Load(), rep.fullFetches.Load())
	}
}

func TestReplicaRejectsCorruptArtifactBeforeSwap(t *testing.T) {
	td := newTestDist(t)
	dir := t.TempDir()
	ctx := context.Background()

	// First artifact fetch arrives with one byte flipped; the decode
	// hash check must reject it before anything reaches the serving
	// path, and the retry (clean) must converge.
	opts := replicaOpts("r1", td.ts.URL, dir)
	opts.HTTPClient = faultyClient(PathSnapshot, faultinject.Config{
		Seed: 11, Rate: 1, Kinds: []faultinject.Kind{faultinject.KindFlipByte},
	})
	var swapped []string
	opts.Serve.OnSwap = func(s *serve.Snapshot) { swapped = append(swapped, s.ContentHash()) }
	rep, err := NewReplica(ctx, opts)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	v1 := td.dist.Manifest().ContentHash
	if got := rep.Server().Snapshot().ContentHash(); got != v1 {
		t.Fatalf("serving %s, want %s", got, v1)
	}
	if rep.corruptRejected.Load() != 1 {
		t.Fatalf("corruptRejected = %d, want 1", rep.corruptRejected.Load())
	}
	if rep.fullFetches.Load() != 1 {
		t.Fatalf("fullFetches = %d, want 1", rep.fullFetches.Load())
	}
	// Nothing was ever swapped beyond the verified cold-start snapshot.
	if len(swapped) != 0 {
		t.Fatalf("unexpected swaps: %v", swapped)
	}
	if got := lastGoodHash(t, rep.opts.LastGood); got != v1 {
		t.Fatalf("last-good = %s, want %s", got, v1)
	}
}

func TestReplicaResumesTruncatedFetchWithRange(t *testing.T) {
	td := newTestDist(t)
	dir := t.TempDir()
	ctx := context.Background()

	// First artifact fetch tears mid-body. The .part keeps the bytes
	// that made it to disk; the retry resumes with a ranged request and
	// completes without re-downloading the prefix.
	opts := replicaOpts("r1", td.ts.URL, dir)
	opts.HTTPClient = faultyClient(PathSnapshot, faultinject.Config{
		Seed: 13, Rate: 1, Kinds: []faultinject.Kind{faultinject.KindTruncateBody},
	})
	rep, err := NewReplica(ctx, opts)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	v1 := td.dist.Manifest().ContentHash
	if got := rep.Server().Snapshot().ContentHash(); got != v1 {
		t.Fatalf("serving %s, want %s", got, v1)
	}
	if rep.resumedFetches.Load() != 1 {
		t.Fatalf("resumedFetches = %d, want 1", rep.resumedFetches.Load())
	}
	if rep.corruptRejected.Load() != 0 {
		t.Fatalf("corruptRejected = %d, want 0", rep.corruptRejected.Load())
	}
	// The resume consumed the .part: nothing partial is left behind.
	if _, err := os.Stat(rep.partPath(v1)); !os.IsNotExist(err) {
		t.Fatalf("part file still present after successful fetch: %v", err)
	}
}

// TestReplicaCrashRejoin is the durability satellite: a replica that
// crashed mid-download restarts instantly from its last-good artifact
// with zero network, then resumes the interrupted fetch from the
// .part file and converges.
func TestReplicaCrashRejoin(t *testing.T) {
	td := newTestDist(t)
	dir := t.TempDir()
	ctx := context.Background()

	repA, err := NewReplica(ctx, replicaOpts("r1", td.ts.URL, dir))
	if err != nil {
		t.Fatalf("NewReplica A: %v", err)
	}
	v1 := repA.Server().Snapshot().ContentHash()

	// Two publishes after A last synced, so the rejoin cannot take the
	// delta shortcut (its base is v2, A is at v1).
	td.publish(t, 2)
	v3 := td.publish(t, 3)

	// Simulate A crashing midway through downloading v3: the first half
	// of the real artifact is on disk under the hash-keyed .part name.
	man := td.dist.Manifest()
	resp, err := http.Get(td.ts.URL + man.SnapshotURL)
	if err != nil {
		t.Fatalf("GET artifact: %v", err)
	}
	artifact, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	part := repA.partPath(v3)
	if err := os.WriteFile(part, artifact[:len(artifact)/2], 0o644); err != nil {
		t.Fatalf("writing torn part: %v", err)
	}

	// "Restart": a fresh replica over the same state directory. Cold
	// start must come from last-good — count the round trips to prove
	// no network was needed.
	ct := &countingTransport{inner: http.DefaultTransport}
	opts := replicaOpts("r1", td.ts.URL, dir)
	opts.HTTPClient = &http.Client{Transport: ct}
	repB, err := NewReplica(ctx, opts)
	if err != nil {
		t.Fatalf("NewReplica B: %v", err)
	}
	if got := repB.Server().Snapshot().ContentHash(); got != v1 {
		t.Fatalf("rejoined replica serves %s, want last-good %s", got, v1)
	}
	if n := ct.n.Load(); n != 0 {
		t.Fatalf("cold start made %d requests, want 0", n)
	}

	// First sync after rejoin: resumes the torn v3 download with a
	// ranged request and converges.
	if err := repB.syncOnce(ctx); err != nil {
		t.Fatalf("syncOnce: %v", err)
	}
	if got := repB.Server().Snapshot().ContentHash(); got != v3 {
		t.Fatalf("after rejoin sync serving %s, want %s", got, v3)
	}
	if repB.resumedFetches.Load() != 1 {
		t.Fatalf("resumedFetches = %d, want 1 (ranged resume of the torn part)", repB.resumedFetches.Load())
	}
	if got := lastGoodHash(t, opts.LastGood); got != v3 {
		t.Fatalf("last-good after rejoin = %s, want %s", got, v3)
	}
	if _, err := os.Stat(part); !os.IsNotExist(err) {
		t.Fatalf("part file survived the resume: %v", err)
	}
}

// TestFleetChaosConvergence is the headline chaos suite: one
// distributor, three replicas, fixed fault seeds. Replica 1's artifact
// fetches corrupt in flight, replica 2's tear mid-body, replica 3
// draws both kinds; mid-run one replica is killed and rejoins from its
// last-good state, and the distributor flaps through a publish. The
// fleet must converge exactly — every replica serving the
// distributor's current content hash, zero divergent — and no snapshot
// may ever have been swapped in that the distributor did not publish.
func TestFleetChaosConvergence(t *testing.T) {
	td := newTestDist(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var swapMu sync.Mutex
	swapped := make(map[string]bool)
	recordSwap := func(s *serve.Snapshot) {
		swapMu.Lock()
		swapped[s.ContentHash()] = true
		swapMu.Unlock()
	}

	kinds := [][]faultinject.Kind{
		{faultinject.KindFlipByte},
		{faultinject.KindTruncateBody},
		{faultinject.KindFlipByte, faultinject.KindTruncateBody},
	}
	dirs := make([]string, 3)
	reps := make([]*Replica, 3)
	cancels := make([]context.CancelFunc, 3)
	done := make([]chan struct{}, 3)
	ids := []string{"chaos-r1", "chaos-r2", "chaos-r3"}
	var allReps []*Replica // every instance ever started, restarts included

	start := func(i int) {
		t.Helper()
		opts := replicaOpts(ids[i], td.ts.URL, dirs[i])
		opts.HTTPClient = faultyClient(PathSnapshot, faultinject.Config{
			Seed: int64(i + 1), Rate: 1, Kinds: kinds[i],
		})
		opts.Serve.OnSwap = recordSwap
		rep, err := NewReplica(ctx, opts)
		if err != nil {
			t.Fatalf("NewReplica %s: %v", ids[i], err)
		}
		recordSwap(rep.Server().Snapshot()) // cold-start snapshot counts too
		runCtx, runCancel := context.WithCancel(ctx)
		ch := make(chan struct{})
		go func() {
			defer close(ch)
			_ = rep.Run(runCtx)
		}()
		reps[i], cancels[i], done[i] = rep, runCancel, ch
		allReps = append(allReps, rep)
	}

	for i := range reps {
		dirs[i] = t.TempDir()
		start(i)
	}

	converged := func(hash string) func() bool {
		return func() bool {
			st := td.dist.Status()
			if len(st.Replicas) != 3 || st.Divergent != 0 || st.ContentHash != hash {
				return false
			}
			for _, r := range st.Replicas {
				if r.ContentHash != hash {
					return false
				}
			}
			return true
		}
	}

	v2 := td.publish(t, 2)
	waitFor(t, 15*time.Second, "fleet convergence on v2", converged(v2))

	// Kill replica 2, then publish v3 while the distributor flaps:
	// every live replica's fetches bounce off 503s before converging.
	cancels[1]()
	<-done[1]
	td.flap.Store(true)
	v3 := td.publish(t, 3)
	time.Sleep(100 * time.Millisecond)
	td.flap.Store(false)

	// The killed replica rejoins from its last-good state.
	start(1)

	waitFor(t, 15*time.Second, "fleet convergence on v3", converged(v3))

	st := td.dist.Status()
	for _, r := range st.Replicas {
		if r.ContentHash != v3 || r.Seq != st.Seq {
			t.Fatalf("replica %s at seq %d hash %s, want seq %d hash %s",
				r.ID, r.Seq, r.ContentHash, st.Seq, v3)
		}
	}

	// Safety: every hash that ever reached a serving path was published
	// by the distributor. Corrupted artifacts never made it through.
	swapMu.Lock()
	defer swapMu.Unlock()
	for h := range swapped {
		if !td.wasPublished(h) {
			t.Fatalf("snapshot %s was swapped in but never published", h)
		}
	}

	// The chaos actually bit: flip faults were rejected by verification
	// and torn transfers were resumed, across the fleet.
	var rejected, resumed int64
	for _, rep := range allReps {
		rejected += rep.corruptRejected.Load()
		resumed += rep.resumedFetches.Load()
	}
	if rejected == 0 {
		t.Fatal("chaos run saw no corrupt-artifact rejections")
	}
	if resumed == 0 {
		t.Fatal("chaos run saw no ranged resumes")
	}
}

// TestReplicaServesLookupsAndMetrics smoke-tests the replica's own
// HTTP surface: lookups answer from the synced snapshot and /metrics
// carries the borgesd_fleet_* series.
func TestReplicaServesLookupsAndMetrics(t *testing.T) {
	td := newTestDist(t)
	dir := t.TempDir()
	ctx := context.Background()

	rep, err := NewReplica(ctx, replicaOpts("r1", td.ts.URL, dir))
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	rts := httptest.NewServer(rep.Server().Handler())
	defer rts.Close()

	resp, err := http.Get(rts.URL + "/v1/as/3356")
	if err != nil {
		t.Fatalf("GET /v1/as/3356: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("Lumen Technologies")) {
		t.Fatalf("lookup = %d %q, want 200 with Lumen", resp.StatusCode, body)
	}

	resp, err = http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"borgesd_fleet_synced_seq",
		"borgesd_fleet_fetch_full_total 1",
		"borgesd_fleet_corrupt_rejected_total 0",
		"borgesd_fleet_watch_reconnects_total",
	} {
		if !bytes.Contains(metrics, []byte(series)) {
			t.Fatalf("/metrics missing %q", series)
		}
	}

	// The distributor's own /metrics carries the publish-side series.
	resp, err = http.Get(td.ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET distributor /metrics: %v", err)
	}
	dm, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"borgesd_fleet_publish_seq 1",
		"borgesd_fleet_replicas 0",
	} {
		if !bytes.Contains(dm, []byte(series)) {
			t.Fatalf("distributor /metrics missing %q", series)
		}
	}
}
