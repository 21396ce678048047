package crawler

import (
	"context"
	"io"
	"net/http"
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

// TestMetaRefreshAndRedirectConverge: a host that meta-refreshes to a
// target whose query holds '&' (which the page writes as &amp;) and a
// host that 301s to the same target end on one final URL, so R&R
// groups them together.
func TestMetaRefreshAndRedirectConverge(t *testing.T) {
	const target = "https://dst.test/?a=1&b=2"
	u := websim.New()
	u.AddSite("dst.test", "dst")
	u.AddSite("refresh.test", "")
	u.MetaRefreshHost("refresh.test", target)
	u.RedirectHost("moved.test", target)
	c := New(Options{Transport: u, SkipFavicons: true})
	refresh := c.Crawl(context.Background(), Task{ASN: 1, URL: "https://refresh.test/"})
	moved := c.Crawl(context.Background(), Task{ASN: 2, URL: "https://moved.test/"})
	if !refresh.OK || !moved.OK {
		t.Fatalf("refresh %+v, moved %+v", refresh, moved)
	}
	if refresh.FinalURL != moved.FinalURL || refresh.Hops != 1 || moved.Hops != 1 {
		t.Fatalf("meta refresh ends at %q after %d hops, 301 at %q after %d", refresh.FinalURL, refresh.Hops, moved.FinalURL, moved.Hops)
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
	f.Fuzz(func(t *testing.T, page string) {
		MetaRefreshTarget(page)
		FaviconLink(page)
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
		}
	})
}
