package crawler

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/websim"
)

// cannedTransport serves scripted responses keyed by host, for edge
// cases the websim universe intentionally does not produce.
type cannedTransport struct {
	byHost map[string]func(req *http.Request) (*http.Response, error)
}

func (c *cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	fn, ok := c.byHost[req.URL.Hostname()]
	if !ok {
		return nil, io.ErrUnexpectedEOF
	}
	return fn(req)
}

func respWith(status int, contentType, body string, hdr map[string]string) func(*http.Request) (*http.Response, error) {
	return func(req *http.Request) (*http.Response, error) {
		h := http.Header{}
		h.Set("Content-Type", contentType)
		for k, v := range hdr {
			h.Set(k, v)
		}
		return &http.Response{
			StatusCode: status,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  h,
			Body:    io.NopCloser(strings.NewReader(body)),
			Request: req,
		}, nil
	}
}

func TestMetaRefreshIgnoredInNonHTML(t *testing.T) {
	// A meta-refresh-looking string inside a plain-text body must not
	// be followed: only HTML pages carry refreshes.
	body := `<meta http-equiv="refresh" content="0; url=https://evil.test/">`
	tr := &cannedTransport{byHost: map[string]func(*http.Request) (*http.Response, error){
		"plain.test": respWith(200, "text/plain", body, nil),
	}}
	c := New(Options{Transport: tr, SkipFavicons: true})
	res := c.Crawl(context.Background(), Task{ASN: 1, URL: "https://plain.test/"})
	if !res.OK || res.FinalURL != "https://plain.test/" {
		t.Errorf("res = %+v err=%v", res, res.Err)
	}
	if res.Hops != 0 {
		t.Errorf("non-HTML refresh followed: %v", res.Chain)
	}
}

// TestAttributeCharacterReferences: the scanners decode character
// references in the attribute values they return, as a browser does.
func TestAttributeCharacterReferences(t *testing.T) {
	if got, want := MetaRefreshTarget(`<meta http-equiv="refresh" content="0; url=https://dst.test/?a=1&amp;b=2">`), "https://dst.test/?a=1&b=2"; got != want {
		t.Errorf("MetaRefreshTarget = %q, want %q", got, want)
	}
	if got, want := FaviconLink(`<link rel="icon" href="/i.ico?v=1&amp;s=2">`), "/i.ico?v=1&s=2"; got != want {
		t.Errorf("FaviconLink = %q, want %q", got, want)
	}
}

// TestScannersReadAttributesLikeBrowser: the scanners match the
// attribute names rel, href, http-equiv and content only whole, and
// read rel as a list of tokens, so each page yields what a browser
// uses.
func TestScannersReadAttributesLikeBrowser(t *testing.T) {
	for _, c := range []struct{ page, icon, refresh string }{
		{page: `<link rel="alternate icon" href="/a.ico">`, icon: "/a.ico"},
		{page: `<link data-rel="icon" rel="stylesheet" href="/s.css">`},
		{page: `<link rel="icon" data-href="/x.ico" href="/y.ico">`, icon: "/y.ico"},
		{page: `<meta data-http-equiv="refresh" content="0; url=https://x.test/">`},
		{page: `<meta http-equiv="refresh" data-content="0; url=https://x.test/" content="0; url=https://y.test/">`, refresh: "https://y.test/"},
		// Further tokenizer rules: case, spacing around '=', bare
		// values, the first of duplicate names, a rel with no icon
		// token, and an icon link without an href.
		{page: `<LINK Rel = "Shortcut ICON" HREF=/up.ico>`, icon: "/up.ico"},
		{page: `<link rel="icon" href="/first.ico" href="/second.ico">`, icon: "/first.ico"},
		{page: `<link rel="apple-touch-icon" href="/t.png"><link rel=iconic href=/i.png>`},
		{page: `<link rel="icon"><link rel="icon" href="/later.ico">`, icon: "/later.ico"},
		{page: `<meta http-equiv=REFRESH content=0;url=https://z.test/>`, refresh: "https://z.test/"},
	} {
		if got := FaviconLink(c.page); got != c.icon {
			t.Errorf("FaviconLink(%s) = %q, want %q", c.page, got, c.icon)
		}
		if got := MetaRefreshTarget(c.page); got != c.refresh {
			t.Errorf("MetaRefreshTarget(%s) = %q, want %q", c.page, got, c.refresh)
		}
	}
}

// TestMetaRefreshAndRedirectConverge: a page that meta-refreshes to a
// target and a page that 301s to the same target end on one final URL
// and one favicon, so R&R groups them together and the favicon feature
// sees one icon. The targets hold what a page must escape (&, <),
// quotes that belong to the URL at the end of a query or a path, a
// space, non-ASCII text and a fragment. A relative target's two first
// hops sit on one host, so both resolve it against the same base. Each
// chain is crawled by its own crawler, whose favicon memo is empty, so
// each fetches the icon itself.
func TestMetaRefreshAndRedirectConverge(t *testing.T) {
	crawl := func(tr http.RoundTripper) (refresh, moved Result) {
		refresh = New(Options{Transport: tr}).Crawl(context.Background(), Task{ASN: 1, URL: "https://src.test/dir/refresh"})
		moved = New(Options{Transport: tr}).Crawl(context.Background(), Task{ASN: 2, URL: "https://src.test/dir/moved"})
		return refresh, moved
	}
	for _, target := range []string{
		"https://dst.test/?a=1&b=2",
		"https://dst.test/?q='a'",
		`https://dst.test/?q="a"`,
		"https://dst.test/a'",
		"https://dst.test/?q=<b>",
		"https://dst.test/a b",
		"https://dst.test/café?q=ü",
		"https://dst.test/page#top",
		"next?q='a'",
		"../up'",
		"/top/x?y=1&z=2",
	} {
		t.Run(target, func(t *testing.T) {
			u := websim.New()
			u.SetPage("src.test", "/dir/refresh", websim.Page{Kind: websim.KindMetaRefresh, Target: target})
			u.SetPage("src.test", "/dir/moved", websim.Page{Kind: websim.KindHTTPRedirect, Target: target})
			// Serve a page, and an icon, wherever the target lands.
			dst, err := url.Parse("https://src.test/dir/moved")
			if err != nil {
				t.Fatal(err)
			}
			ref, err := url.Parse(target)
			if err != nil {
				t.Fatal(err)
			}
			dst = dst.ResolveReference(ref)
			u.SetPage(dst.Hostname(), dst.Path, websim.Page{Kind: websim.KindContent})
			u.AddSite(dst.Hostname(), "dst")
			refresh, moved := crawl(u)
			if !refresh.OK || !moved.OK {
				t.Fatalf("refresh %+v, moved %+v", refresh, moved)
			}
			if refresh.FinalURL != moved.FinalURL || refresh.Hops != 1 || moved.Hops != 1 {
				t.Fatalf("meta refresh ends at %q after %d hops, 301 at %q after %d", refresh.FinalURL, refresh.Hops, moved.FinalURL, moved.Hops)
			}
			if refresh.FaviconHash == "" || refresh.FaviconHash != moved.FaviconHash {
				t.Fatalf("meta refresh ends on icon %q, 301 on %q", refresh.FaviconHash, moved.FaviconHash)
			}
		})
	}
	// The final page declares its icon by a relative link, resolved
	// against the page's URL or its <base href>. The site's
	// /favicon.ico is another icon, so a chain that fell back to it
	// would end on the wrong hash.
	for _, c := range []struct{ name, page, icon string }{
		{"relative icon", `<link rel="icon" href="img/i.ico">`, "https://dst.test/final/img/i.ico"},
		{"relative icon under base href", `<base href="https://cdn.test/assets/"><link rel="icon" href="img/i.ico">`, "https://cdn.test/assets/img/i.ico"},
	} {
		t.Run(c.name, func(t *testing.T) {
			refresh, moved := crawl(movedTransport{
				moved: map[string]string{"https://src.test/dir/moved": "https://dst.test/final/page"},
				pages: pageTransport{
					"https://src.test/dir/refresh": `<meta http-equiv="refresh" content="0; url=https://dst.test/final/page">`,
					"https://dst.test/final/page":  c.page,
					c.icon:                         "ICON",
					"https://dst.test/favicon.ico": "FALLBACK",
					"https://cdn.test/favicon.ico": "FALLBACK",
				},
			})
			sum := sha256.Sum256([]byte("ICON"))
			want := hex.EncodeToString(sum[:])
			if refresh.FinalURL != moved.FinalURL || refresh.FaviconHash != want || moved.FaviconHash != want {
				t.Fatalf("meta refresh ends at %q on icon %q, 301 at %q on %q; want icon %s from %s",
					refresh.FinalURL, refresh.FaviconHash, moved.FinalURL, moved.FaviconHash, want, c.icon)
			}
		})
	}
}

// movedTransport answers each URL it maps with a 301 to its target and
// hands every other request to pages.
type movedTransport struct {
	moved map[string]string
	pages pageTransport
}

func (m movedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if to, ok := m.moved[req.URL.String()]; ok {
		return respWith(http.StatusMovedPermanently, "text/html", "", map[string]string{"Location": to})(req)
	}
	return m.pages.RoundTrip(req)
}

// pageTransport serves scripted bodies by URL (scheme, host and path):
// a path ending in .ico as an icon, anything else as HTML, and a URL
// it does not hold as 404.
type pageTransport map[string]string

func (p pageTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	u := *req.URL
	u.RawQuery = ""
	body, ok := p[u.String()]
	status, ct := http.StatusOK, "text/html"
	if !ok {
		status = http.StatusNotFound
	} else if strings.HasSuffix(u.Path, ".ico") {
		ct = "image/x-icon"
	}
	return respWith(status, ct, body, nil)(req)
}

// TestBaseHrefResolvesRefreshAndFavicon: a relative meta-refresh target
// and a relative favicon link resolve against the page's first <base
// href>, as a browser resolves them, not against the page's own URL.
func TestBaseHrefResolvesRefreshAndFavicon(t *testing.T) {
	const base = `<base target="_self"><base href="https://b.test/dir/"><base href="https://wrong.test/">`
	tr := pageTransport{
		"https://a.test/":              base + `<meta http-equiv="refresh" content="0; url=next.html">`,
		"https://b.test/dir/next.html": "next",
		"https://c.test/page":          base + `<link rel="icon" href="i.ico">`,
		"https://b.test/dir/i.ico":     "ICON",
	}
	c := New(Options{Transport: tr})
	if res := c.Crawl(context.Background(), Task{ASN: 1, URL: "https://a.test/"}); !res.OK || res.FinalURL != "https://b.test/dir/next.html" {
		t.Errorf("refresh crawl = %+v, want final URL https://b.test/dir/next.html", res)
	}
	sum := sha256.Sum256([]byte("ICON"))
	if res := c.Crawl(context.Background(), Task{ASN: 2, URL: "https://c.test/page"}); !res.OK || res.FaviconHash != hex.EncodeToString(sum[:]) {
		t.Errorf("icon crawl = %+v, want the icon at https://b.test/dir/i.ico", res)
	}
	for _, c := range []struct{ page, want string }{
		{`<base href="/root/">`, "/root/"},
		{`<BASE HREF=" rel/&amp;x ">`, "rel/&x"},
		{`<base><base href=""><base href="/late/">`, ""},
		{`<!-- <base href="/hidden/"> --><script><base href="/s/"></script><base href="/seen/">`, "/seen/"},
		{`<link rel="icon" href="/i.ico">`, ""},
	} {
		if got := BaseHref(c.page); got != c.want {
			t.Errorf("BaseHref(%s) = %q, want %q", c.page, got, c.want)
		}
	}
}

func TestMaxBodyTruncatesScan(t *testing.T) {
	// The meta refresh sits beyond the body cap, so it is not seen.
	page := strings.Repeat("x", 2048) +
		`<meta http-equiv="refresh" content="0; url=https://next.test/">`
	tr := &cannedTransport{byHost: map[string]func(*http.Request) (*http.Response, error){
		"big.test": respWith(200, "text/html", page, nil),
	}}
	c := New(Options{Transport: tr, MaxBody: 1024, SkipFavicons: true})
	res := c.Crawl(context.Background(), Task{ASN: 1, URL: "https://big.test/"})
	if !res.OK || res.Hops != 0 {
		t.Errorf("res = %+v", res)
	}
}

// TestScannersLinearOnHostilePages: pages come from outside the
// program, so the HTML scans must stay linear in a page's size. Each
// page fills the default MaxBody (256 KiB) with a pattern on which a
// scan that retries every '<' up to the next '>' is quadratic: a run
// of '<' closed by one '>' (about a second per scanner), and "<link "
// repeated with no rel=icon (minutes for FaviconLink). A linear scan
// reads each in tens of milliseconds, ten times that under -race.
func TestScannersLinearOnHostilePages(t *testing.T) {
	const size = 256 << 10
	bound := time.Second
	if raceEnabled {
		bound *= 10
	}
	pages := map[string]string{
		"lt":   strings.Repeat("<", size-1) + ">",
		"link": strings.Repeat("<link ", size/6) + ">",
		"meta": strings.Repeat("<meta ", size/6) + ">",
	}
	for name, page := range pages {
		start := time.Now()
		MetaRefreshTarget(page)
		FaviconLink(page)
		if d := time.Since(start); d > bound {
			t.Errorf("scanning the %q page (%d bytes) took %v, want under %v", name, len(page), d, bound)
		}
	}
}

func TestRedirectToUnparsableLocation(t *testing.T) {
	tr := &cannedTransport{byHost: map[string]func(*http.Request) (*http.Response, error){
		"bad.test": respWith(301, "text/html", "", map[string]string{
			"Location": "ftp://not-http.test/",
		}),
	}}
	c := New(Options{Transport: tr, SkipFavicons: true})
	res := c.Crawl(context.Background(), Task{ASN: 1, URL: "https://bad.test/"})
	if res.OK || res.Err == nil {
		t.Errorf("unsupported redirect scheme should fail: %+v", res)
	}
}

func TestRedirectMissingLocation(t *testing.T) {
	tr := &cannedTransport{byHost: map[string]func(*http.Request) (*http.Response, error){
		"noloc.test": respWith(302, "text/html", "", nil),
	}}
	c := New(Options{Transport: tr, SkipFavicons: true})
	res := c.Crawl(context.Background(), Task{ASN: 1, URL: "https://noloc.test/"})
	if res.OK || res.Err == nil || !strings.Contains(res.Err.Error(), "Location") {
		t.Errorf("res = %+v err=%v", res, res.Err)
	}
}

func TestRelativeLocationResolved(t *testing.T) {
	tr := &cannedTransport{byHost: map[string]func(*http.Request) (*http.Response, error){
		"rel.test": func(req *http.Request) (*http.Response, error) {
			if req.URL.Path == "/start" {
				return respWith(302, "text/html", "", map[string]string{
					"Location": "../final",
				})(req)
			}
			return respWith(200, "text/html", "<html>done</html>", nil)(req)
		},
	}}
	c := New(Options{Transport: tr, SkipFavicons: true})
	res := c.Crawl(context.Background(), Task{ASN: 1, URL: "https://rel.test/start"})
	if !res.OK || res.FinalURL != "https://rel.test/final" {
		t.Errorf("res = %+v err=%v", res, res.Err)
	}
}

func TestStatusTaxonomy(t *testing.T) {
	// Every 2xx counts as reached but only 200 is OK per the paper's
	// "available" criterion; 4xx/5xx fail.
	for _, tc := range []struct {
		status int
		wantOK bool
	}{
		{200, true}, {204, false}, {403, false}, {404, false}, {500, false}, {503, false},
	} {
		tr := &cannedTransport{byHost: map[string]func(*http.Request) (*http.Response, error){
			"s.test": respWith(tc.status, "text/html", "<html></html>", nil),
		}}
		c := New(Options{Transport: tr, SkipFavicons: true})
		res := c.Crawl(context.Background(), Task{ASN: 1, URL: "https://s.test/"})
		if res.OK != tc.wantOK {
			t.Errorf("status %d: OK = %v, want %v", tc.status, res.OK, tc.wantOK)
		}
	}
}

func TestFaviconFallbackWhenLinkBroken(t *testing.T) {
	// The declared <link rel="icon"> 404s; /favicon.ico works.
	tr := &cannedTransport{byHost: map[string]func(*http.Request) (*http.Response, error){
		"fb.test": func(req *http.Request) (*http.Response, error) {
			switch req.URL.Path {
			case "/":
				return respWith(200, "text/html",
					`<html><link rel="icon" href="/broken.png"><body>x</body></html>`, nil)(req)
			case "/favicon.ico":
				return respWith(200, "image/x-icon", "ICONBYTES", nil)(req)
			default:
				return respWith(404, "text/plain", "nope", nil)(req)
			}
		},
	}}
	c := New(Options{Transport: tr})
	res := c.Crawl(context.Background(), Task{ASN: 1, URL: "https://fb.test/"})
	if !res.OK || res.FaviconHash == "" {
		t.Errorf("fallback favicon not used: %+v", res)
	}
}

func TestNoFaviconAnywhere(t *testing.T) {
	tr := &cannedTransport{byHost: map[string]func(*http.Request) (*http.Response, error){
		"none.test": func(req *http.Request) (*http.Response, error) {
			if req.URL.Path == "/" {
				return respWith(200, "text/html", "<html>x</html>", nil)(req)
			}
			return respWith(404, "text/plain", "nope", nil)(req)
		},
	}}
	c := New(Options{Transport: tr})
	res := c.Crawl(context.Background(), Task{ASN: 1, URL: "https://none.test/"})
	if !res.OK || res.FaviconHash != "" {
		t.Errorf("res = %+v", res)
	}
}

// TestScannersSkipCommentsAndRawText: a tag a browser does not parse,
// in a comment or in the text of a <script> or <style> element, is not
// read, so the tag that follows it is.
func TestScannersSkipCommentsAndRawText(t *testing.T) {
	for _, c := range []struct{ page, icon, refresh string }{
		{page: `<!-- <meta http-equiv="refresh" content="0; url=https://old.test/"> -->`},
		{page: `<script>document.write('<meta http-equiv="refresh" content="0; url=https://js.test/">')</script>`},
		{page: `<style>/* <link rel="icon" href="/old.ico"> */</style><link rel="icon" href="/real.ico">`, icon: "/real.ico"},
		// A comment ends at its first "-->", or at once as "<!-->" and
		// "<!--->"; raw text ends at its own end tag, in any case.
		{page: `<!-- a -- b --><meta http-equiv="refresh" content="0; url=https://after.test/">`, refresh: "https://after.test/"},
		{page: `<!--><link rel="icon" href="/a.ico"><!---><link rel="icon" href="/b.ico">`, icon: "/a.ico"},
		{page: `<SCRIPT type="text/javascript">x = "</scripts>"; y = "<link rel=icon href=/js.ico>"</Script ><link rel="icon" href="/ok.ico">`, icon: "/ok.ico"},
		{page: `<style><meta http-equiv="refresh" content="0; url=https://css.test/"></style>` +
			`<meta http-equiv="refresh" content="0; url=https://real.test/">`, refresh: "https://real.test/"},
		// An unclosed comment or script hides the rest of the page.
		{page: `<!-- <link rel="icon" href="/x.ico">`},
		{page: `<script><link rel="icon" href="/x.ico">`},
		// Names that only start like script or style are other tags.
		{page: `<scripted><styles><link rel="icon" href="/s.ico">`, icon: "/s.ico"},
	} {
		if got := FaviconLink(c.page); got != c.icon {
			t.Errorf("FaviconLink(%s) = %q, want %q", c.page, got, c.icon)
		}
		if got := MetaRefreshTarget(c.page); got != c.refresh {
			t.Errorf("MetaRefreshTarget(%s) = %q, want %q", c.page, got, c.refresh)
		}
	}
}

// FuzzScanners holds the HTML scanners to their never-panic contract on
// any page, and checks that a page hidden whole in a comment, or in the
// text of a script or style element, yields nothing.
func FuzzScanners(f *testing.F) {
	f.Add(`<meta http-equiv="refresh" content="0; url=https://x.test/"><link rel="icon" href="/i.ico">`)
	f.Add(`<!-- <meta http-equiv=refresh content="0;url=/a"> --><link rel=icon href=/b>`)
	f.Add(`<script>"<link rel=icon href=/c>"</script><style>`)
	f.Add(`<!--><!---><META HTTP-EQUIV=REFRESH CONTENT=0;URL=/d>`)
	f.Add(`<link <meta <!-- </script`)
	f.Add(`<base href="https://b.test/dir/"><meta http-equiv=refresh content="0;url=next.html">`)
	f.Fuzz(func(t *testing.T, page string) {
		MetaRefreshTarget(page)
		FaviconLink(page)
		BaseHref(page)
		hidden := map[string]bool{
			"<!--" + page + "-->":                !strings.Contains(page, "-->") && !strings.HasPrefix(page, ">") && !strings.HasPrefix(page, "->"),
			"<script>" + page + "</script>":      !strings.Contains(page, "</"),
			"<style type=x>" + page + "</style>": !strings.Contains(page, "</"),
		}
		for p, applies := range hidden {
			if !applies {
				continue
			}
			if got := MetaRefreshTarget(p); got != "" {
				t.Fatalf("MetaRefreshTarget(%q) = %q, want nothing", p, got)
			}
			if got := FaviconLink(p); got != "" {
				t.Fatalf("FaviconLink(%q) = %q, want nothing", p, got)
			}
			if got := BaseHref(p); got != "" {
				t.Fatalf("BaseHref(%q) = %q, want nothing", p, got)
			}
		}
	})
}
