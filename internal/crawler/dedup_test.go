package crawler

import (
	"context"
	"fmt"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cache"
	"github.com/nu-aqualab/borges/internal/websim"
)

// TestCrawlAllDeduplicatesCanonicalURLs is the acceptance check for
// crawl-level dedup: many tasks whose URLs canonicalize identically
// must issue exactly one fetch per unique canonical URL, and every
// task must still receive a result carrying its own identity.
func TestCrawlAllDeduplicatesCanonicalURLs(t *testing.T) {
	u := buildUniverse()
	c := newTestCrawler(u)
	tasks := []Task{
		{ASN: 1, URL: "https://www.edg.io"},
		{ASN: 2, URL: "https://www.edg.io/"},       // same canonical URL
		{ASN: 3, URL: "www.edg.io"},                // scheme-less variant
		{ASN: 4, URL: "https://www.clarochile.cl"}, // distinct site
		{ASN: 5, URL: "https://www.clarochile.cl"},
		{ASN: 6, URL: "http://bad url with spaces"}, // uncanonicalizable
	}
	results := c.CrawlAll(context.Background(), tasks)

	// edg.io: 1 page fetch + 1 favicon fetch; clarochile: the same.
	// Without dedup this would be 5 page fetches.
	if got := u.Requests(); got != 4 {
		t.Errorf("transport requests = %d, want 4 (one page + one favicon per unique URL)", got)
	}
	for i := 0; i < 5; i++ {
		if results[i].Task != tasks[i] {
			t.Errorf("result %d carries task %+v, want %+v", i, results[i].Task, tasks[i])
		}
		if !results[i].OK {
			t.Errorf("result %d not OK: %v", i, results[i].Err)
		}
	}
	for i := 0; i < 3; i++ {
		if results[i].FinalURL != "https://www.edg.io/" {
			t.Errorf("result %d FinalURL = %q", i, results[i].FinalURL)
		}
	}
	if results[5].Err == nil {
		t.Error("uncanonicalizable task should carry an error")
	}
}

// TestFaviconFetchedOncePerHost: concurrent crawls that end on one
// host share a single favicon fetch, however they are scheduled.
func TestFaviconFetchedOncePerHost(t *testing.T) {
	const n = 64
	u := websim.New()
	u.AddSite("www.edg.io", "edgio")
	tasks := make([]Task, n)
	for i := range tasks {
		host := fmt.Sprintf("r%d.test", i)
		u.RedirectHost(host, "https://www.edg.io/")
		tasks[i] = Task{ASN: asnum.ASN(i + 1), URL: "https://" + host + "/"}
	}
	c := New(Options{Transport: u, Concurrency: 16})
	for i, r := range c.CrawlAll(context.Background(), tasks) {
		if !r.OK || r.FaviconHash == "" {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	// Per task the redirect and the final page; one favicon for all.
	if got, want := u.Requests(), int64(2*n+1); got != want {
		t.Errorf("transport requests = %d, want %d", got, want)
	}
}

// TestCrawlCacheWarmRun crawls through a shared cache twice with two
// crawler instances; the second run must not touch the transport and
// must still serve favicon bytes for the classifier.
func TestCrawlCacheWarmRun(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := buildUniverse()
	tasks := []Task{
		{ASN: 1, URL: "https://www.edg.io"},
		{ASN: 2, URL: "www.llnw.com"}, // redirects to edg.io
		{ASN: 3, URL: "https://www.clarochile.cl"},
		{ASN: 4, URL: "https://down.test"}, // unreachable: outcome still cached
	}
	cold := New(Options{Transport: u, Concurrency: 4, Cache: store})
	coldRes := cold.CrawlAll(context.Background(), tasks)
	u.ResetRequests()

	warm := New(Options{Transport: u, Concurrency: 4, Cache: store})
	warmRes := warm.CrawlAll(context.Background(), tasks)
	if got := u.Requests(); got != 0 {
		t.Errorf("warm run issued %d transport requests, want 0", got)
	}
	for i := range tasks {
		w, c := warmRes[i], coldRes[i]
		if w.OK != c.OK || w.FinalURL != c.FinalURL || w.FaviconHash != c.FaviconHash || w.Hops != c.Hops {
			t.Errorf("task %d: warm %+v != cold %+v", i, w, c)
		}
		if (w.Err == nil) != (c.Err == nil) {
			t.Errorf("task %d: warm err %v vs cold err %v", i, w.Err, c.Err)
		}
	}
	// The warm crawler can serve icon bytes it never downloaded.
	if h := warmRes[0].FaviconHash; h == "" || len(warm.IconBytes(h)) == 0 {
		t.Error("warm crawler lacks rehydrated favicon bytes")
	}
}
