package crawler

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"

	"github.com/nu-aqualab/borges/internal/websim"
)

// buildUniverse wires the paper's flagship examples:
//
//   - edg.io merger: llnw.com and edgecast.com both redirect to www.edg.io
//   - Sprint chain: clearwire.com → sprint.com →(meta refresh) t-mobile.com
//   - Claro: clarochile.cl and claropr.com share a favicon
//   - down.test is unreachable; err500.test serves 500s
func buildUniverse() *websim.Universe {
	u := websim.New()
	u.AddSite("www.edg.io", "edgio")
	u.RedirectHost("www.llnw.com", "https://www.edg.io/")
	u.RedirectHost("www.edgecast.com", "https://www.edg.io/")

	u.AddSite("www.t-mobile.com", "tmobile")
	u.RedirectHost("www.clearwire.com", "https://www.sprint.com/")
	u.AddSite("www.sprint.com", "")
	u.MetaRefreshHost("www.sprint.com", "https://www.t-mobile.com/")

	u.AddSite("www.clarochile.cl", "claro")
	u.AddSite("www.claropr.com", "claro")

	u.AddSite("down.test", "")
	u.SetDown("down.test", true)
	u.AddSite("err500.test", "")
	u.SetPage("err500.test", "/", websim.Page{Kind: websim.KindServerError})
	return u
}

func newTestCrawler(u *websim.Universe) *Crawler {
	return New(Options{Transport: u, Concurrency: 4})
}

func TestCrawlDirect(t *testing.T) {
	c := newTestCrawler(buildUniverse())
	res := c.Crawl(context.Background(), Task{ASN: 15133, URL: "https://www.edg.io"})
	if !res.OK || res.Err != nil {
		t.Fatalf("res = %+v", res)
	}
	if res.FinalURL != "https://www.edg.io/" || res.Hops != 0 {
		t.Errorf("FinalURL=%q Hops=%d", res.FinalURL, res.Hops)
	}
	if res.FaviconHash == "" {
		t.Error("expected favicon hash")
	}
}

func TestCrawlHTTPRedirect(t *testing.T) {
	c := newTestCrawler(buildUniverse())
	res := c.Crawl(context.Background(), Task{ASN: 22822, URL: "www.llnw.com"})
	if !res.OK {
		t.Fatalf("res = %+v", res)
	}
	if res.FinalURL != "https://www.edg.io/" {
		t.Errorf("FinalURL = %q", res.FinalURL)
	}
	if res.Hops != 1 || len(res.Chain) != 2 {
		t.Errorf("Hops=%d Chain=%v", res.Hops, res.Chain)
	}
}

// TestCrawlMetaRefreshChain reproduces the Clearwire example (Fig. 5b):
// clearwire → sprint (HTTP) → t-mobile (meta refresh). A plain HTTP
// client would stop at sprint.com; the R&R crawler must reach t-mobile.
func TestCrawlMetaRefreshChain(t *testing.T) {
	c := newTestCrawler(buildUniverse())
	res := c.Crawl(context.Background(), Task{ASN: 16586, URL: "http://www.clearwire.com"})
	if !res.OK {
		t.Fatalf("res = %+v, err=%v", res, res.Err)
	}
	if res.FinalURL != "https://www.t-mobile.com/" {
		t.Errorf("FinalURL = %q, want t-mobile", res.FinalURL)
	}
	if res.Hops != 2 {
		t.Errorf("Hops = %d, want 2", res.Hops)
	}
	wantChain := []string{"http://www.clearwire.com/", "https://www.sprint.com/", "https://www.t-mobile.com/"}
	if len(res.Chain) != len(wantChain) {
		t.Fatalf("Chain = %v", res.Chain)
	}
	for i := range wantChain {
		if res.Chain[i] != wantChain[i] {
			t.Errorf("Chain[%d] = %q, want %q", i, res.Chain[i], wantChain[i])
		}
	}
}

func TestSharedFavicons(t *testing.T) {
	c := newTestCrawler(buildUniverse())
	r1 := c.Crawl(context.Background(), Task{ASN: 1, URL: "www.clarochile.cl"})
	r2 := c.Crawl(context.Background(), Task{ASN: 2, URL: "www.claropr.com"})
	r3 := c.Crawl(context.Background(), Task{ASN: 3, URL: "www.edg.io"})
	if r1.FaviconHash == "" || r1.FaviconHash != r2.FaviconHash {
		t.Errorf("claro favicons differ: %q vs %q", r1.FaviconHash, r2.FaviconHash)
	}
	if r1.FaviconHash == r3.FaviconHash {
		t.Error("claro and edgio favicons should differ")
	}
}

// TestRetainedIconsExactSize: the icons kept for the classifier hold
// only their own bytes, not the spare capacity of the read buffer
// (io.ReadAll starts at 512 bytes; websim icons are a few dozen).
func TestRetainedIconsExactSize(t *testing.T) {
	c := newTestCrawler(buildUniverse())
	res := c.CrawlAll(context.Background(), []Task{
		{ASN: 1, URL: "www.clarochile.cl"},
		{ASN: 2, URL: "www.edg.io"},
		{ASN: 3, URL: "http://www.clearwire.com"},
	})
	for _, r := range res {
		if r.FaviconHash == "" {
			t.Fatalf("%s: no favicon hash", r.Task.URL)
		}
		icon := c.IconBytes(r.FaviconHash)
		if len(icon) == 0 || cap(icon) != len(icon) {
			t.Errorf("%s: retained icon len %d cap %d, want equal and non-zero", r.Task.URL, len(icon), cap(icon))
		}
	}
}

func TestCrawlFailures(t *testing.T) {
	c := newTestCrawler(buildUniverse())
	ctx := context.Background()

	res := c.Crawl(ctx, Task{ASN: 1, URL: "https://down.test/"})
	if res.OK || res.Err == nil {
		t.Errorf("down host: %+v", res)
	}
	res = c.Crawl(ctx, Task{ASN: 1, URL: "https://nohost.test/"})
	if res.OK || res.Err == nil {
		t.Errorf("unknown host: %+v", res)
	}
	res = c.Crawl(ctx, Task{ASN: 1, URL: "https://err500.test/"})
	if res.OK || res.Err == nil || !strings.Contains(res.Err.Error(), "500") {
		t.Errorf("500 host: %+v err=%v", res, res.Err)
	}
	res = c.Crawl(ctx, Task{ASN: 1, URL: "::::"})
	if res.OK || res.Err == nil {
		t.Errorf("bad URL: %+v", res)
	}
}

func TestRedirectLoop(t *testing.T) {
	u := websim.New()
	u.RedirectHost("a.loop", "https://b.loop/")
	u.RedirectHost("b.loop", "https://a.loop/")
	c := newTestCrawler(u)
	res := c.Crawl(context.Background(), Task{ASN: 1, URL: "https://a.loop/"})
	if res.OK || res.Err == nil || !strings.Contains(res.Err.Error(), "loop") {
		t.Errorf("res = %+v err=%v", res, res.Err)
	}
}

func TestMaxHops(t *testing.T) {
	u := websim.New()
	// Chain of 6 hops with MaxHops 3.
	hosts := []string{"h0.test", "h1.test", "h2.test", "h3.test", "h4.test", "h5.test"}
	for i := 0; i < len(hosts)-1; i++ {
		u.RedirectHost(hosts[i], "https://"+hosts[i+1]+"/")
	}
	u.AddSite(hosts[len(hosts)-1], "")
	c := New(Options{Transport: u, MaxHops: 3})
	res := c.Crawl(context.Background(), Task{ASN: 1, URL: "https://h0.test/"})
	if res.OK || res.Err == nil || !strings.Contains(res.Err.Error(), "exceeds") {
		t.Errorf("res = %+v err=%v", res, res.Err)
	}
	// With a generous budget the same chain resolves.
	c2 := New(Options{Transport: u, MaxHops: 10})
	res2 := c2.Crawl(context.Background(), Task{ASN: 1, URL: "https://h0.test/"})
	if !res2.OK || res2.FinalURL != "https://h5.test/" {
		t.Errorf("res2 = %+v", res2)
	}
}

func TestCrawlAllOrderAndConcurrency(t *testing.T) {
	u := buildUniverse()
	c := newTestCrawler(u)
	tasks := []Task{
		{ASN: 22822, URL: "www.llnw.com"},
		{ASN: 15133, URL: "www.edgecast.com"},
		{ASN: 16586, URL: "www.clearwire.com"},
		{ASN: 9999, URL: "https://down.test/"},
	}
	results := c.CrawlAll(context.Background(), tasks)
	if len(results) != len(tasks) {
		t.Fatalf("got %d results", len(results))
	}
	for i := range tasks {
		if results[i].Task.ASN != tasks[i].ASN {
			t.Errorf("result %d out of order: %v", i, results[i].Task)
		}
	}
	if !results[0].OK || !results[1].OK || !results[2].OK || results[3].OK {
		t.Errorf("OK flags: %v %v %v %v", results[0].OK, results[1].OK, results[2].OK, results[3].OK)
	}
	finals := FinalURLs(results)
	if len(finals) != 3 {
		t.Fatalf("FinalURLs = %v", finals)
	}
	if finals[0].URL != "https://www.edg.io/" || finals[1].URL != "https://www.edg.io/" {
		t.Errorf("finals = %v", finals)
	}
}

func TestCrawlAllCancellation(t *testing.T) {
	u := buildUniverse()
	c := newTestCrawler(u)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := c.CrawlAll(ctx, []Task{{ASN: 1, URL: "www.edg.io"}})
	if results[0].Err == nil {
		t.Error("cancelled crawl should error")
	}
}

func TestPerHostDelay(t *testing.T) {
	u := websim.New()
	u.AddSite("slow.test", "")
	c := New(Options{Transport: u, PerHostDelay: 30 * time.Millisecond, SkipFavicons: true})
	start := time.Now()
	c.Crawl(context.Background(), Task{ASN: 1, URL: "https://slow.test/"})
	c.Crawl(context.Background(), Task{ASN: 2, URL: "https://slow.test/"})
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("per-host delay not enforced: %v", elapsed)
	}
}

func TestSkipFavicons(t *testing.T) {
	u := buildUniverse()
	c := New(Options{Transport: u, SkipFavicons: true})
	res := c.Crawl(context.Background(), Task{ASN: 1, URL: "www.clarochile.cl"})
	if !res.OK || res.FaviconHash != "" {
		t.Errorf("res = %+v", res)
	}
}

func TestFaviconCache(t *testing.T) {
	u := buildUniverse()
	c := newTestCrawler(u)
	ctx := context.Background()
	c.Crawl(ctx, Task{ASN: 1, URL: "www.edg.io"})
	before := u.Requests()
	c.Crawl(ctx, Task{ASN: 2, URL: "www.edg.io"})
	after := u.Requests()
	// Second crawl should refetch the page (1 request) but hit the
	// favicon cache (no icon request).
	if after-before != 1 {
		t.Errorf("requests for cached-favicon crawl = %d, want 1", after-before)
	}
}

func TestMetaRefreshTarget(t *testing.T) {
	cases := []struct{ html, want string }{
		{`<meta http-equiv="refresh" content="0; url=https://x.test/">`, "https://x.test/"},
		{`<META HTTP-EQUIV='REFRESH' CONTENT='5;URL=/relative'>`, "/relative"},
		{`<meta content="0; url=https://y.test" http-equiv="refresh">`, "https://y.test"},
		{`<meta http-equiv="refresh" content="30">`, ""}, // reload, no url
		{`<meta name="viewport" content="width=device-width">`, ""},
		{`no tags at all`, ""},
		{`<meta http-equiv="refresh" content="0; url='quoted.test'">`, "quoted.test"},
		// An opening quote ends at its match; other quotes are the URL's.
		{`<meta http-equiv="refresh" content="0; url=' q.test/a ' trailing">`, "q.test/a"},
		{`<meta http-equiv="refresh" content='0; url="q.test/?x=&#39;y&#39;"'>`, "q.test/?x='y'"},
		{`<meta http-equiv="refresh" content="0; url='open.test/a">`, "open.test/a"},
		{`<meta http-equiv="refresh" content="0; url=q.test/?x='y'">`, "q.test/?x='y'"},
		{`<meta http-equiv="refresh" content='0; url=q.test/a"'>`, `q.test/a"`},
		{`<meta http-equiv="refresh" content="0; url=''">`, ""},
	}
	for _, c := range cases {
		if got := MetaRefreshTarget(c.html); got != c.want {
			t.Errorf("MetaRefreshTarget(%q) = %q, want %q", c.html, got, c.want)
		}
	}
}

func TestFaviconLink(t *testing.T) {
	cases := []struct{ html, want string }{
		{`<link rel="icon" href="/fav.png">`, "/fav.png"},
		{`<link rel="shortcut icon" href="https://cdn.test/i.ico">`, "https://cdn.test/i.ico"},
		{`<link rel="stylesheet" href="/style.css">`, ""},
		{`<LINK REL='ICON' HREF='/up.ico'>`, "/up.ico"},
		{``, ""},
	}
	for _, c := range cases {
		if got := FaviconLink(c.html); got != c.want {
			t.Errorf("FaviconLink(%q) = %q, want %q", c.html, got, c.want)
		}
	}
}

func TestDeclaredFaviconLinkPreferred(t *testing.T) {
	u := websim.New()
	u.AddSite("declared.test", "brandicon")
	// Page declares an icon at a custom path; install it.
	u.SetPage("declared.test", "/", websim.Page{
		Kind:  websim.KindContent,
		Title: "declared",
		Body:  `<link rel="icon" href="/favicon.ico">`,
	})
	c := newTestCrawler(u)
	res := c.Crawl(context.Background(), Task{ASN: 1, URL: "declared.test"})
	if !res.OK || res.FaviconHash == "" {
		t.Errorf("res = %+v", res)
	}
}

func TestConcurrentCrawlsRace(t *testing.T) {
	u := buildUniverse()
	c := New(Options{Transport: u, Concurrency: 8})
	var tasks []Task
	urls := []string{"www.llnw.com", "www.edgecast.com", "www.clearwire.com",
		"www.clarochile.cl", "www.claropr.com", "www.edg.io"}
	for i := 0; i < 60; i++ {
		tasks = append(tasks, Task{ASN: asnum.ASN(1000 + i), URL: urls[i%len(urls)]})
	}
	var okCount atomic.Int64
	results := c.CrawlAll(context.Background(), tasks)
	for _, r := range results {
		if r.OK {
			okCount.Add(1)
		}
	}
	if okCount.Load() != 60 {
		t.Errorf("ok = %d, want 60", okCount.Load())
	}
}
