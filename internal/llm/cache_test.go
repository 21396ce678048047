package llm_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/nu-aqualab/borges/internal/cache"
	"github.com/nu-aqualab/borges/internal/llm"
)

// The LLM completion cache is cache.Provider over a memory-only Cache
// (what borges.NewCachingProvider returns). These tests hold it to the
// provider contract seen from this package: a stored reply is the one
// the backend gave first, and a failed call is never stored.

// numberingProvider numbers its replies, so a reply served from the
// cache is told apart from a fresh backend call.
type numberingProvider struct {
	mu    sync.Mutex
	calls int
	fail  bool
}

func (p *numberingProvider) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	p.mu.Lock()
	p.calls++
	n, fail := p.calls, p.fail
	p.mu.Unlock()
	if fail {
		return llm.Response{}, errors.New("backend down")
	}
	content := ""
	if len(req.Messages) > 0 {
		content = req.Messages[len(req.Messages)-1].Content
	}
	return llm.Response{Content: fmt.Sprintf("reply %d to %s", n, content)}, nil
}

func newCaching(t *testing.T, inner llm.Provider) (*cache.Provider, *cache.Cache) {
	t.Helper()
	c, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &cache.Provider{Inner: inner, Cache: c}, c
}

func reqWith(content string) llm.Request {
	return llm.Request{Model: "m", Messages: []llm.Message{{Role: llm.RoleUser, Content: content}}}
}

func TestCachingMemoizes(t *testing.T) {
	p := &numberingProvider{}
	c, store := newCaching(t, p)
	ctx := context.Background()

	r1, err := c.Complete(ctx, reqWith("hello"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Complete(ctx, reqWith("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Content != "reply 1 to hello" || r2.Content != r1.Content {
		t.Errorf("replies = %q, %q; want the first backend reply twice", r1.Content, r2.Content)
	}
	if p.calls != 1 {
		t.Errorf("backend calls = %d, want 1", p.calls)
	}
	if _, err := c.Complete(ctx, reqWith("different")); err != nil {
		t.Fatal(err)
	}
	if p.calls != 2 {
		t.Errorf("backend calls = %d, want 2", p.calls)
	}
	if st := store.Stats(); st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats = %d hits, %d misses, %d entries; want 1, 2, 2", st.Hits, st.Misses, st.Entries)
	}
}

func TestCachingDoesNotStoreErrors(t *testing.T) {
	p := &numberingProvider{fail: true}
	c, store := newCaching(t, p)
	ctx := context.Background()
	if _, err := c.Complete(ctx, reqWith("x")); err == nil {
		t.Fatal("want error")
	}
	if st := store.Stats(); st.Entries != 0 {
		t.Errorf("entries after a failed call = %d, want 0", st.Entries)
	}
	p.mu.Lock()
	p.fail = false
	p.mu.Unlock()
	resp, err := c.Complete(ctx, reqWith("x"))
	if err != nil || resp.Content != "reply 2 to x" {
		t.Fatalf("recovered call = %q, %v; want a fresh backend reply", resp.Content, err)
	}
	if p.calls != 2 {
		t.Errorf("calls = %d, want 2 (errors must not be cached)", p.calls)
	}
}
