package cache

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/llm"
)

func TestGetPutRoundTrip(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("empty cache should miss")
	}
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("k")
	if !ok || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New(Options{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Get("a") // refresh a; b is now the LRU victim
	c.Put("c", []byte("3"))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestSingleflight launches many goroutines missing on one key and
// requires exactly one underlying fill.
func TestSingleflight(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	start := make(chan struct{})
	release := make(chan struct{})
	fill := func(ctx context.Context) ([]byte, error) {
		calls.Add(1)
		<-release // hold the flight open so followers must piggyback
		return []byte("shared"), nil
	}
	const workers = 16
	var wg sync.WaitGroup
	results := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := c.GetOrFill(context.Background(), "hot", fill)
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	// Hold the fill open until every follower has joined the flight (a
	// follower is counted in Dedups as it joins), so none can arrive
	// after the fill and count as a hit instead.
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Dedups < workers-1 {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("followers joined = %d, want %d", c.Stats().Dedups, workers-1)
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("underlying fills = %d, want 1", calls.Load())
	}
	for i, v := range results {
		if string(v) != "shared" {
			t.Errorf("worker %d got %q", i, v)
		}
	}
	if st := c.Stats(); st.Dedups != workers-1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want %d dedups and no hits", st, workers-1)
	}
}

// TestGetOrFillMissAllocatesNoChannel: a miss that no other caller
// shares allocates its flight record beside what storing the value
// costs, and no channel for waiters that never come.
func TestGetOrFillMissAllocatesNoChannel(t *testing.T) {
	const entries, runs = 64, 200
	c, err := New(Options{MaxEntries: entries})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, entries+2*(runs+1))
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	val := []byte("value")
	fill := func(context.Context) ([]byte, error) { return val, nil }
	next := 0
	for ; next < entries; next++ { // fill the LRU so every store evicts
		if err := c.Put(keys[next], val); err != nil {
			t.Fatal(err)
		}
	}
	put := testing.AllocsPerRun(runs, func() {
		_ = c.Put(keys[next], val)
		next++
	})
	miss := testing.AllocsPerRun(runs, func() {
		if _, err := c.GetOrFill(context.Background(), keys[next], fill); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if st := c.Stats(); st.Hits != 0 {
		t.Fatalf("stats = %+v, want misses only", st)
	}
	if miss > put+1 {
		t.Fatalf("a GetOrFill miss allocates %v times, a Put %v: more than the flight record", miss, put)
	}
}

func TestGetOrFillErrorNotCached(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("backend down")
	if _, err := c.GetOrFill(context.Background(), "k", func(context.Context) ([]byte, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, err := c.GetOrFill(context.Background(), "k", func(context.Context) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || string(v) != "ok" {
		t.Fatalf("recovery fill: %q, %v", v, err)
	}
}

// TestDiskTierSurvivesRestart writes through one Cache instance and
// reads through a second instance opened on the same directory — the
// cross-process warm-start path.
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("llm:abc", []byte(`{"Content":"Orange"}`)); err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("crawl:def", []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	v, ok := c2.Get("llm:abc")
	if !ok || string(v) != `{"Content":"Orange"}` {
		t.Fatalf("disk round-trip: %q, %v", v, ok)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.DiskEntries != 2 {
		t.Errorf("stats = %+v", st)
	}
	// A second Get is served from memory (promoted on the disk hit).
	if _, ok := c2.Get("llm:abc"); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Errorf("second read should not touch disk: %+v", st)
	}
}

// TestDiskTierToleratesTornTail simulates a crash mid-append: the torn
// trailing line is discarded on reopen and the log stays usable.
func TestDiskTierToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put("k1", []byte("v1"))
	// Simulate the torn write directly on the log handle.
	if _, err := c1.log.WriteAt([]byte(`{"k":"k2","v":"InRv`), c1.logSize); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if v, ok := c2.Get("k1"); !ok || string(v) != "v1" {
		t.Fatalf("intact entry lost: %q, %v", v, ok)
	}
	if err := c2.Put("k3", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	c3, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if v, ok := c3.Get("k3"); !ok || string(v) != "v3" {
		t.Fatalf("post-recovery append lost: %q, %v", v, ok)
	}
}

func TestKeyNamespacesAndSensitivity(t *testing.T) {
	if Key("llm", "a", "b") == Key("llm", "ab") {
		t.Error("length-prefixing must separate part boundaries")
	}
	if Key("llm", "x") == Key("crawl", "x") {
		t.Error("namespaces must not collide")
	}
	if Key("llm", "x") != Key("llm", "x") {
		t.Error("keys must be deterministic")
	}
}

// TestCacheKeyGolden pins keys computed by the original streaming
// implementation (sha256.New fed one length prefix and one part at a
// time): a disk-tier log written by an earlier version must still hit.
// Key allocates only the key it returns.
func TestCacheKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		ns    string
		parts []string
		want  string
	}{
		{"crawl", []string{"https://www.example.com/", "10", "262144", "false", "borges-crawler/1.0 (AS-to-Org research)"},
			"crawl:47d98efcda2273df51743fba81874a7fd8842024e79ab1b466f9371025c75bdf"},
		{"crawl", []string{"https://x.test/?q=%FF", "3", "1024", "true", "ua"},
			"crawl:90d5eaa7890db604c20da6338f5c273efbbcf5346ca0cf1d7838663baa25a44d"},
		{"llm", nil, "llm:89bd5d0a94e80f10d71b5a609b7105c2756ca6e82b4ceed450e79eb972f55340"},
		{"", nil, ":af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
		{"ns", []string{""}, "ns:1d6021db462a4a3a5dd5d0d8e93383b94fb7ddd5bf72392f99c5dcce71a01511"},
		{"ns", []string{"", ""}, "ns:25f590fbc06d1f16c4bca59cd988e69fe49c54ec9f6bfc5f95318f950753c827"},
		{"a", []string{"b\x00c", "é"}, "a:5c53da0c9582005498ec251774d7be0467baa24e5cb16ede09b13adbc3b290a2"},
		// A preimage longer than Key's stack buffer.
		{"crawl", []string{strings.Repeat("x", 600)}, "crawl:fc0598461c987866f4540596cb907582ebe52f6e201829e59c0f07e9439489a2"},
	} {
		if got := Key(tc.ns, tc.parts...); got != tc.want {
			t.Errorf("Key(%q, %q) = %s, want %s", tc.ns, tc.parts, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { Key("crawl", "https://www.example.com/", "10", "262144") }); n > 1 {
		t.Errorf("Key allocates %.0f times, want 1 (the key itself)", n)
	}
}

// countingProvider echoes requests and counts backend calls.
type countingProvider struct {
	calls atomic.Int64
	fail  atomic.Bool
}

func (p *countingProvider) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	p.calls.Add(1)
	if p.fail.Load() {
		return llm.Response{}, errors.New("backend down")
	}
	content := ""
	if len(req.Messages) > 0 {
		content = req.Messages[len(req.Messages)-1].Content
	}
	return llm.Response{Content: "re: " + content, Model: req.Model}, nil
}

func TestProviderMemoizes(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingProvider{}
	p := &Provider{Inner: inner, Cache: c}
	req := llm.Request{Model: "m", Messages: []llm.Message{{Role: llm.RoleUser, Content: "hello"}}}
	ctx := context.Background()
	r1, err := p.Complete(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Complete(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("cached response differs: %+v vs %+v", r1, r2)
	}
	if inner.calls.Load() != 1 {
		t.Errorf("backend calls = %d, want 1", inner.calls.Load())
	}
	// A different prompt misses.
	req2 := req
	req2.Messages = []llm.Message{{Role: llm.RoleUser, Content: "other"}}
	if _, err := p.Complete(ctx, req2); err != nil {
		t.Fatal(err)
	}
	if inner.calls.Load() != 2 {
		t.Errorf("backend calls = %d, want 2", inner.calls.Load())
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats = %d hits, %d misses, %d entries; want 1, 2, 2", st.Hits, st.Misses, st.Entries)
	}
}

// TestProviderConcurrent: many goroutines asking four distinct
// questions (run it with -race) reach the backend exactly once per
// question, whether they share an in-flight call or hit its entry.
func TestProviderConcurrent(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingProvider{}
	p := &Provider{Inner: inner, Cache: c}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf("q%d", i%4)
			resp, err := p.Complete(context.Background(), llm.Request{Model: "m", Messages: []llm.Message{{Role: llm.RoleUser, Content: q}}})
			if err != nil || resp.Content != "re: "+q {
				t.Errorf("%s: %+v, %v", q, resp, err)
			}
		}(i)
	}
	wg.Wait()
	if n := inner.calls.Load(); n != 4 {
		t.Errorf("backend calls = %d, want 4", n)
	}
	if st := c.Stats(); st.Entries != 4 {
		t.Errorf("entries = %d, want 4", st.Entries)
	}
}

func TestProviderDiskWarmStart(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingProvider{}
	req := llm.Request{Model: "m", Messages: []llm.Message{{Role: llm.RoleUser, Content: "q"}}}
	if _, err := (&Provider{Inner: inner, Cache: c1}).Complete(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	inner2 := &countingProvider{}
	resp, err := (&Provider{Inner: inner2, Cache: c2}).Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if inner2.calls.Load() != 0 {
		t.Errorf("warm start hit the backend %d times", inner2.calls.Load())
	}
	if resp.Content != "re: q" {
		t.Errorf("warm response = %+v", resp)
	}
}

func TestProviderErrorsPropagate(t *testing.T) {
	c, _ := New(Options{})
	inner := &countingProvider{}
	inner.fail.Store(true)
	p := &Provider{Inner: inner, Cache: c}
	req := llm.Request{Model: "m", Messages: []llm.Message{{Role: llm.RoleUser, Content: "x"}}}
	if _, err := p.Complete(context.Background(), req); err == nil {
		t.Fatal("want error")
	}
	inner.fail.Store(false)
	if _, err := p.Complete(context.Background(), req); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if inner.calls.Load() != 2 {
		t.Errorf("calls = %d, want 2 (errors must not be cached)", inner.calls.Load())
	}
}

// TestConcurrentMixedUse hammers one cache from many goroutines across
// overlapping keys with the race detector in mind.
func TestConcurrentMixedUse(t *testing.T) {
	c, err := New(Options{MaxEntries: 8, Dir: filepath.Join(t.TempDir(), "d")})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%12)
			if i%3 == 0 {
				c.Put(key, []byte(key))
				return
			}
			v, err := c.GetOrFill(context.Background(), key, func(context.Context) ([]byte, error) {
				return []byte(key), nil
			})
			if err != nil || string(v) != key {
				t.Errorf("GetOrFill(%s) = %q, %v", key, v, err)
			}
		}(i)
	}
	wg.Wait()
}
