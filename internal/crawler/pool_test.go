package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/resilience"
)

// gatedTransport holds every request until release is closed, then
// answers with a plain 200 page. It counts the requests that reached
// it and records their hosts.
type gatedTransport struct {
	release chan struct{}
	calls   atomic.Int64

	mu    sync.Mutex
	hosts map[string]bool
}

func newGatedTransport() *gatedTransport {
	return &gatedTransport{release: make(chan struct{}), hosts: make(map[string]bool)}
}

func (g *gatedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	g.mu.Lock()
	g.hosts[req.URL.Host] = true
	g.mu.Unlock()
	g.calls.Add(1)
	<-g.release
	return &http.Response{
		Status: "200 OK", StatusCode: 200, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  http.Header{"Content-Type": []string{"text/html"}},
		Body:    io.NopCloser(strings.NewReader("<html></html>")),
		Request: req,
	}, nil
}

func (g *gatedTransport) reached(host string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hosts[host]
}

// distinctTasks returns n tasks with n distinct canonical URLs.
func distinctTasks(n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{ASN: asnum.ASN(i + 1), URL: fmt.Sprintf("https://h%d.test/", i)}
	}
	return tasks
}

// TestCrawlAllGoroutinesBounded: with every worker blocked on the
// network, a 2,000-URL crawl holds one goroutine per worker, not one
// per pending URL.
func TestCrawlAllGoroutinesBounded(t *testing.T) {
	const conc, n = 16, 2000
	tr := newGatedTransport()
	c := New(Options{Transport: tr, Concurrency: conc, SkipFavicons: true})
	base := runtime.NumGoroutine()
	done := make(chan []Result, 1)
	go func() { done <- c.CrawlAll(context.Background(), distinctTasks(n)) }()
	waitUntil(t, func() bool { return tr.calls.Load() == conc })
	// The CrawlAll caller plus one goroutine per worker; the rest is
	// slack for the runtime.
	if got, limit := runtime.NumGoroutine(), base+conc+4; got > limit {
		t.Errorf("goroutines with %d URLs pending = %d, want <= %d", n-conc, got, limit)
	}
	close(tr.release)
	for i, r := range <-done {
		if !r.OK || r.Task.ASN != asnum.ASN(i+1) {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	if got := tr.calls.Load(); got != n {
		t.Errorf("requests = %d, want %d", got, n)
	}
}

// TestCrawlAllCancelStopsFetches: cancelling while every worker is
// blocked on the network issues no further request, and every task
// whose URL was never requested carries context.Canceled.
func TestCrawlAllCancelStopsFetches(t *testing.T) {
	const conc, n = 4, 200
	tr := newGatedTransport()
	c := New(Options{Transport: tr, Concurrency: conc, SkipFavicons: true})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tasks := distinctTasks(n)
	done := make(chan []Result, 1)
	go func() { done <- c.CrawlAll(ctx, tasks) }()
	waitUntil(t, func() bool { return tr.calls.Load() == conc })
	cancel()
	close(tr.release)
	results := <-done
	if got := tr.calls.Load(); got != conc {
		t.Errorf("requests = %d, want %d: a URL was fetched after cancellation", got, conc)
	}
	for i, r := range results {
		if r.Task != tasks[i] {
			t.Fatalf("result %d out of order: %v", i, r.Task)
		}
		if !tr.reached(fmt.Sprintf("h%d.test", i)) && !errors.Is(r.Err, context.Canceled) {
			t.Errorf("unfetched task %d err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// stallTransport never answers on its own: it returns only when the
// request's context ends.
type stallTransport struct{}

func (stallTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	<-req.Context().Done()
	return nil, req.Context().Err()
}

// TestTimeoutBoundsEachRequest: Options.Timeout ends a request stuck
// awaiting its response and one stuck mid-body, as a transient fault.
func TestTimeoutBoundsEachRequest(t *testing.T) {
	for name, tr := range map[string]http.RoundTripper{
		"headers": stallTransport{},
		"body":    blockingTransport{},
	} {
		c := New(Options{Transport: tr, SkipFavicons: true, Timeout: 20 * time.Millisecond})
		done := make(chan Result, 1)
		go func() { done <- c.Crawl(context.Background(), Task{ASN: 1, URL: "https://stuck.test/"}) }()
		select {
		case res := <-done:
			if !errors.Is(res.Err, context.DeadlineExceeded) || !resilience.IsTransient(res.Err) {
				t.Errorf("%s: err = %v, want a transient deadline error", name, res.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: request outlived its timeout", name)
		}
	}
}

// waitUntil yields until cond holds, failing the test after 10s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		runtime.Gosched()
	}
}
