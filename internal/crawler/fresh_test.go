package crawler

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"testing"
	"unicode/utf8"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cache"
	"github.com/nu-aqualab/borges/internal/resilience"
	"github.com/nu-aqualab/borges/internal/websim"
)

// hostMux routes requests by host: canned hosts first, then the
// universe.
type hostMux struct {
	canned *cannedTransport
	web    *websim.Universe
}

func (m hostMux) RoundTrip(req *http.Request) (*http.Response, error) {
	if _, ok := m.canned.byHost[req.URL.Hostname()]; ok {
		return m.canned.RoundTrip(req)
	}
	return m.web.RoundTrip(req)
}

// outcomeUniverse serves one site per crawl outcome a cache entry can
// hold, and returns the tasks that reach them.
func outcomeUniverse() (http.RoundTripper, []Task) {
	u := websim.New()
	u.AddSite("linked.test", "linked") // 200, <link rel="icon">
	u.AddSite("noicon.test", "")       // 200, /favicon.ico 404s
	u.SetPage("gone.test", "/", websim.Page{Kind: websim.KindNotFound})
	u.RedirectHost("loop-a.test", "https://loop-b.test/")
	u.RedirectHost("loop-b.test", "https://loop-a.test/")
	for i := 0; i < 5; i++ { // five hops, past MaxHops 3
		u.RedirectHost(fmt.Sprintf("hop%d.test", i), fmt.Sprintf("https://hop%d.test/", i+1))
	}
	u.AddSite("hop5.test", "")
	u.MetaRefreshHost("meta-a.test", "https://meta-b.test/")
	u.MetaRefreshHost("meta-b.test", "https://linked.test/")
	u.AddSite("query.test", "")

	canned := &cannedTransport{byHost: map[string]func(*http.Request) (*http.Response, error){
		// A page without a <link>, whose icon is the default path.
		"default.test": func(req *http.Request) (*http.Response, error) {
			if req.URL.Path == "/favicon.ico" {
				return respWith(200, "image/x-icon", "DEFAULT-ICON", nil)(req)
			}
			return respWith(200, "text/html", "<html><body>no link</body></html>", nil)(req)
		},
		"noloc.test":    respWith(302, "text/html", "", nil),
		"badloc.test":   respWith(301, "text/html", "", map[string]string{"Location": "http://[::1"}),
		"ftploc.test":   respWith(308, "text/html", "", map[string]string{"Location": "ftp://files.test/"}),
		"spaceloc.test": respWith(300, "text/html", "", map[string]string{"Location": " https://linked.test/ "}),
		"nonutf8.test":  respWith(302, "text/html", "", map[string]string{"Location": "/next?\xff"}),
	}}

	tasks := []Task{
		{ASN: 1, URL: "https://linked.test/"},
		{ASN: 2, URL: "https://default.test/"},
		{ASN: 3, URL: "https://noicon.test/"},
		{ASN: 4, URL: "https://gone.test/"},
		{ASN: 5, URL: "https://loop-a.test/"},
		{ASN: 6, URL: "https://hop0.test/"},
		{ASN: 7, URL: "https://noloc.test/"},
		{ASN: 8, URL: "https://badloc.test/"},
		{ASN: 9, URL: "https://ftploc.test/"},
		{ASN: 10, URL: "https://spaceloc.test/"},
		{ASN: 11, URL: "https://meta-a.test/"},
		{ASN: 12, URL: "https://query.test/?q=\xff"},
		{ASN: 13, URL: "https://nonutf8.test/"},
	}
	return hostMux{canned: canned, web: u}, tasks
}

// TestCrawlFreshEqualsDecoded: the Result the cache fill built and
// returns directly equals, error text included, both the Result decoded
// from a reopened disk-tier cache and a crawl with no cache at all, for
// every kind of outcome the cache stores; so do the icon payloads.
func TestCrawlFreshEqualsDecoded(t *testing.T) {
	transport, tasks := outcomeUniverse()
	dir := t.TempDir()
	opts := Options{Transport: transport, MaxHops: 3}

	store, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = store
	freshCr := New(opts)
	fresh := make([]Result, len(tasks))
	for i, task := range tasks {
		fresh[i] = freshCr.Crawl(context.Background(), task)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	opts.Cache = reopened
	decodedCr := New(opts)
	opts.Cache = nil
	plainCr := New(opts)

	for i, task := range tasks {
		dec := decodedCr.Crawl(context.Background(), task)
		plain := plainCr.Crawl(context.Background(), task)
		if !reflect.DeepEqual(fresh[i], dec) {
			t.Errorf("%s: fresh %+v (err %v)\ndecoded %+v (err %v)", task.URL, fresh[i], fresh[i].Err, dec, dec.Err)
		}
		if errText(fresh[i].Err) != errText(plain.Err) {
			t.Errorf("%s: error %q with a cache, %q without", task.URL, errText(fresh[i].Err), errText(plain.Err))
		}
		plain.Err = fresh[i].Err
		if !reflect.DeepEqual(fresh[i], plain) {
			t.Errorf("%s: with a cache %+v\nwithout %+v", task.URL, fresh[i], plain)
		}
		if h := fresh[i].FaviconHash; h != "" {
			icon := freshCr.IconBytes(h)
			if len(icon) == 0 || !bytes.Equal(icon, decodedCr.IconBytes(h)) || !bytes.Equal(icon, plainCr.IconBytes(h)) {
				t.Errorf("%s: icon bytes differ: fresh %q decoded %q plain %q",
					task.URL, icon, decodedCr.IconBytes(h), plainCr.IconBytes(h))
			}
		}
	}
	if st := reopened.Stats(); st.DiskHits != int64(len(tasks)) || st.Misses != 0 {
		t.Errorf("reopened cache stats = %+v, want every crawl a disk hit", st)
	}

	// Each outcome kind is covered.
	want := map[string]func(Result) bool{
		"https://linked.test/":   func(r Result) bool { return r.OK && r.FaviconHash != "" },
		"https://default.test/":  func(r Result) bool { return r.OK && r.FaviconHash != "" },
		"https://noicon.test/":   func(r Result) bool { return r.OK && r.FaviconHash == "" },
		"https://gone.test/":     func(r Result) bool { return !r.OK && r.Err != nil && r.Hops == 0 },
		"https://loop-a.test/":   func(r Result) bool { return !r.OK && len(r.Chain) == 3 },
		"https://hop0.test/":     func(r Result) bool { return !r.OK && r.Hops == 4 },
		"https://noloc.test/":    func(r Result) bool { return !r.OK && r.Err != nil },
		"https://badloc.test/":   func(r Result) bool { return !r.OK && r.Err != nil },
		"https://ftploc.test/":   func(r Result) bool { return !r.OK && r.Err != nil },
		"https://spaceloc.test/": func(r Result) bool { return r.OK && r.Hops == 1 },
		"https://meta-a.test/":   func(r Result) bool { return r.OK && r.Hops == 2 && r.FaviconHash != "" },
		"https://query.test/?q=\xff": func(r Result) bool {
			return r.OK && r.FinalURL == "https://query.test/?q=%FF"
		},
		"https://nonutf8.test/": func(r Result) bool { return !r.OK && utf8.ValidString(r.FinalURL) },
	}
	for i, task := range tasks {
		if !want[task.URL](fresh[i]) {
			t.Errorf("%s: outcome %+v (err %v) is not the kind it should cover", task.URL, fresh[i], fresh[i].Err)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestInvalidUTF8QueriesStayDistinct: two reported URLs differing only
// in a query byte that is not valid UTF-8 keep distinct final URLs with
// a cache as without one. A canonical form holding the raw byte came
// back from the cache's JSON as U+FFFD, merging the two.
func TestInvalidUTF8QueriesStayDistinct(t *testing.T) {
	u := websim.New()
	u.AddSite("x.test", "")
	tasks := []Task{{ASN: 1, URL: "https://x.test/?q=\xff"}, {ASN: 2, URL: "https://x.test/?q=\xfe"}}
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{Transport: u}, {Transport: u, Cache: store}, {Transport: u, Cache: store}} {
		res := New(opts).CrawlAll(context.Background(), tasks)
		a, b := res[0].FinalURL, res[1].FinalURL
		if !res[0].OK || !res[1].OK || a == b || !utf8.ValidString(a) || !utf8.ValidString(b) {
			t.Fatalf("cache %v: final URLs %q and %q, want two distinct valid UTF-8 URLs", opts.Cache != nil, a, b)
		}
		if a != "https://x.test/?q=%FF" || b != "https://x.test/?q=%FE" {
			t.Errorf("cache %v: final URLs %q, %q", opts.Cache != nil, a, b)
		}
	}
}

// allocUniverse mixes the work of a build's crawl: HTTP redirect
// chains, meta refreshes, sites with a linked favicon, sites without a
// link (whose /favicon.ico fallback 404s), and 404 pages.
func allocUniverse(n int) (*websim.Universe, []Task) {
	u := websim.New()
	var tasks []Task
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("site%d.test", i)
		switch i % 5 {
		case 0:
			u.AddSite(host, fmt.Sprintf("icon%d", i%40))
		case 1:
			u.RedirectHost(host, fmt.Sprintf("https://www.site%d.test/", i))
			u.RedirectHost(fmt.Sprintf("www.site%d.test", i), fmt.Sprintf("https://site%d.test/", i-1))
		case 2:
			u.MetaRefreshHost(host, fmt.Sprintf("https://site%d.test/", i-2))
		case 3:
			u.AddSite(host, "")
		default:
			u.SetPage(host, "/", websim.Page{Kind: websim.KindNotFound})
		}
		tasks = append(tasks, Task{ASN: asnum.ASN(1000 + i), URL: "https://" + host + "/"})
	}
	return u, tasks
}

// TestCrawlAllocsPerTask bounds the allocations of a crawl on a memory
// cache, with retries and breakers configured as a build configures
// them. A cold CrawlAll over this universe made 126 allocations per
// task when every request went through http.Client, every body through
// io.ReadAll and every fresh outcome through a JSON round trip, and
// each URL was parsed at every step; each fetch now allocates only
// what the crawl keeps: 63 per task (74 under -race, whose sync.Pool
// drops buffers at random). The bound sits between the two.
func TestCrawlAllocsPerTask(t *testing.T) {
	const n, maxPerTask = 500, 90
	u, tasks := allocUniverse(n)
	var perTask float64
	for round := 0; round < 3; round++ { // the least of three, against background noise
		store, err := cache.New(cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := New(Options{
			Transport: u, Cache: store, Concurrency: 4,
			Retry:    &resilience.Policy{MaxAttempts: 3},
			Breakers: &resilience.BreakerSet{Threshold: 5},
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := c.CrawlAll(context.Background(), tasks)
		runtime.ReadMemStats(&after)
		if len(res) != n || !res[0].OK || res[0].FaviconHash == "" || res[4].OK {
			t.Fatalf("unexpected outcomes: %+v / %+v", res[0], res[4])
		}
		if got := float64(after.Mallocs-before.Mallocs) / n; round == 0 || got < perTask {
			perTask = got
		}
	}
	t.Logf("%.1f allocations per task", perTask)
	if perTask > maxPerTask {
		t.Errorf("%.1f allocations per task, want at most %d", perTask, maxPerTask)
	}
}
