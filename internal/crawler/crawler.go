// Package crawler implements the web-scraping stage of Borges's
// web-based inference (§4.3.1). Where the paper drives a Selenium
// headless browser to load each website referenced in PeeringDB —
// executing refreshes and redirects ("R&R") to discover the final URL —
// this crawler follows both HTTP 3xx redirect chains and HTML
// <meta http-equiv="refresh"> redirects over net/http, records the full
// chain, and retrieves the final site's favicon (the paper uses Google's
// Favicon API; here the icon is fetched from the site itself and hashed
// for identity).
//
// The crawler is concurrency-bounded, context-aware, per-host
// rate-limited, and bounds both redirect-chain length and response body
// size, as an unattended crawl over operator-supplied URLs must be.
package crawler

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/tls"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cache"
	"github.com/nu-aqualab/borges/internal/fanout"
	"github.com/nu-aqualab/borges/internal/resilience"
	"github.com/nu-aqualab/borges/internal/urlmatch"
)

// Task is one crawl unit: a network and its self-reported website.
type Task struct {
	ASN asnum.ASN
	URL string

	// canon is URL canonicalized, set by NewTask so that the crawl
	// does not canonicalize it again; "" in a Task literal.
	canon string
}

// NewTask returns the task for a network's reported website, its URL
// canonicalized once, here: CrawlAll and Crawl reuse the canonical form
// instead of computing it again. It fails for a URL that
// urlmatch.Canonicalize rejects.
func NewTask(asn asnum.ASN, rawURL string) (Task, error) {
	canon, err := urlmatch.Canonicalize(rawURL)
	if err != nil {
		return Task{}, err
	}
	return Task{ASN: asn, URL: rawURL, canon: canon}, nil
}

// Canonical returns the task's canonical URL: the one NewTask
// computed, or for a Task literal its URL canonicalized now.
func (t Task) Canonical() (string, error) {
	if t.canon != "" {
		return t.canon, nil
	}
	canon, err := urlmatch.Canonicalize(t.URL)
	if err != nil {
		return "", fmt.Errorf("crawler: %w", err)
	}
	return canon, nil
}

// Result is the outcome of crawling one task.
type Result struct {
	Task Task
	// OK reports whether a final page was reached with HTTP 200.
	OK bool
	// FinalURL is the canonical URL of the last page reached.
	FinalURL string
	// Chain holds every URL visited, reported URL first.
	Chain []string
	// Hops counts redirects followed (HTTP + meta refresh).
	Hops int
	// FaviconHash is the hex SHA-256 of the final site's favicon bytes,
	// or "" if the site serves none.
	FaviconHash string
	// Err describes a failure (unreachable host, redirect loop, …).
	Err error
}

// Options configures a Crawler. The zero value is usable: defaults are
// filled in by New.
type Options struct {
	// Transport is the HTTP transport to use. Defaults to
	// http.DefaultTransport; tests and simulations inject a
	// websim.Universe here.
	Transport http.RoundTripper
	// MaxHops bounds the redirect chain (default 10).
	MaxHops int
	// MaxBody bounds how many bytes of a page body are read when
	// scanning for meta refreshes and favicon links (default 256 KiB).
	MaxBody int64
	// Concurrency bounds parallel fetches in CrawlAll (default 16).
	Concurrency int
	// PerHostDelay is the minimum interval between two requests to the
	// same host (default 0; set >0 when crawling real sites).
	PerHostDelay time.Duration
	// Timeout bounds each individual HTTP request, body read included
	// (default 15s). It is the request context's deadline rather than
	// http.Client.Timeout, which costs a goroutine per request on any
	// transport but net/http's own.
	Timeout time.Duration
	// SkipFavicons disables retrieval of the final site's favicon
	// (favicons are fetched by default; skip for R&R-only crawls).
	SkipFavicons bool
	// UserAgent is sent with every request.
	UserAgent string
	// Retry, when non-nil, retries transient transport faults
	// (timeouts, resets, 429/5xx, torn bodies) per request under the
	// unified policy. Nil disables retries: every fault surfaces after
	// one attempt.
	Retry *resilience.Policy
	// Breakers, when non-nil, supplies per-host circuit breakers keyed
	// "crawl:<host>": after repeated transient failures a host's
	// fetches are denied fast until a cooldown probe succeeds, so one
	// melting host cannot absorb the whole run's retry budget.
	Breakers *resilience.BreakerSet
	// Cache, when non-nil, memoizes crawl outcomes content-addressed
	// by canonical URL and the options that shape a result (MaxHops,
	// MaxBody, SkipFavicons, UserAgent). Concurrent crawls of one
	// canonical URL collapse to a single fetch, and with a disk-tier
	// cache a warm re-run resolves every previously seen URL without a
	// network round-trip. Cached entries carry the favicon hash and
	// payload, so the classifier's image prompts are byte-identical
	// across runs.
	Cache *cache.Cache
}

// Crawler resolves reported URLs to final URLs and favicons.
type Crawler struct {
	opts Options
	exec *resilience.Executor
	// header is the one request header every request shares, read-only.
	header http.Header
	// keyOpts are the option parts of every cache key, formatted once.
	keyOpts [4]string

	// Three locks, one per piece of shared state, so that a fetch
	// waits only for fetches touching the same piece: hitMu guards the
	// per-host clock, favMu the favicon memo and its in-flight fetches,
	// and iconMu the icon bytes, which every cache fill and classifier
	// prompt reads. iconMu is a plain Mutex: every icon fetch writes
	// under it, and as an RWMutex it made a paper-scale crawl's mutex
	// delay half as large again.
	hitMu     sync.Mutex
	lastHit   map[string]time.Time
	favMu     sync.Mutex
	favCache  map[string]string        // final host -> favicon hash
	favBusy   map[string]chan struct{} // final host -> closed when its favicon fetch ends
	iconMu    sync.Mutex
	iconBytes map[string][]byte // favicon hash -> icon payload
}

// New returns a Crawler with defaults applied.
func New(opts Options) *Crawler {
	if opts.Transport == nil {
		opts.Transport = http.DefaultTransport
	}
	if opts.MaxHops <= 0 {
		opts.MaxHops = 10
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = 256 << 10
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 16
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 15 * time.Second
	}
	if opts.UserAgent == "" {
		opts.UserAgent = "borges-crawler/1.0 (AS-to-Org research)"
	}
	return &Crawler{
		opts:   opts,
		exec:   &resilience.Executor{Policy: opts.Retry, Breakers: opts.Breakers},
		header: http.Header{"User-Agent": {opts.UserAgent}},
		keyOpts: [4]string{
			strconv.Itoa(opts.MaxHops),
			strconv.FormatInt(opts.MaxBody, 10),
			strconv.FormatBool(opts.SkipFavicons),
			opts.UserAgent,
		},
		lastHit:   make(map[string]time.Time),
		favCache:  make(map[string]string),
		favBusy:   make(map[string]chan struct{}),
		iconBytes: make(map[string][]byte),
	}
}

func (o Options) faviconsEnabled() bool { return !o.SkipFavicons }

// Crawl resolves one task, consulting the result cache when one is
// configured.
func (c *Crawler) Crawl(ctx context.Context, t Task) Result {
	canon, err := t.Canonical()
	if err != nil {
		return Result{Task: t, Err: err}
	}
	return c.crawl(ctx, t, canon)
}

// crawl is Crawl for a task whose URL is already canonicalized.
func (c *Crawler) crawl(ctx context.Context, t Task, canon string) Result {
	if c.opts.Cache == nil {
		return c.resolve(ctx, t, canon)
	}
	var fresh Result
	filled := false
	raw, err := c.opts.Cache.GetOrFill(ctx, c.cacheKey(canon), func(ctx context.Context) ([]byte, error) {
		r := c.resolve(ctx, t, canon)
		if r.Err != nil {
			if errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded) {
				// A cancelled crawl says nothing about the site; caching
				// it would poison warm runs.
				return nil, r.Err
			}
			if resilience.IsTransient(r.Err) {
				// Transient faults — timeouts, resets, 429/5xx, open
				// breakers — are conditions of the moment, not
				// observations about the site. The outcome still
				// reaches every waiter in this run (via the typed
				// error), but nothing is cached, so a later healthy
				// run re-resolves the URL instead of inheriting the
				// outage.
				return nil, &transientResult{res: r}
			}
		}
		fresh, filled = r, true
		return json.Marshal(c.toCached(r))
	})
	if err != nil {
		var tr *transientResult
		if errors.As(err, &tr) {
			r := tr.res
			r.Task = t
			return r
		}
		return Result{Task: t, Err: err}
	}
	if filled {
		// The fill ran here: return the Result it built rather than
		// decode the bytes it just encoded, when that Result is what
		// decoding would give back. Cache hits and singleflight
		// followers decode.
		if r, ok := decoded(fresh); ok {
			return r
		}
	}
	var ce cachedCrawl
	if err := json.Unmarshal(raw, &ce); err != nil {
		return Result{Task: t, Err: fmt.Errorf("crawler: decode cached crawl: %w", err)}
	}
	return c.fromCached(t, ce)
}

// cacheKey fingerprints a canonical URL together with every option
// that shapes the outcome (MaxHops, MaxBody, SkipFavicons, UserAgent).
// Transport identity is deliberately excluded: a cache directory
// belongs to one web (live or one simulated universe), which the
// caller controls.
func (c *Crawler) cacheKey(canon string) string {
	o := &c.keyOpts
	return cache.Key("crawl", canon, o[0], o[1], o[2], o[3])
}

// transientResult carries an uncacheable outcome out of a GetOrFill
// fill: singleflight hands the error to every goroutine waiting on the
// key, so concurrent crawls of one URL share the degraded result while
// the cache stays clean.
type transientResult struct{ res Result }

func (e *transientResult) Error() string {
	return fmt.Sprintf("crawler: transient outcome for %s (not cached): %v", e.res.FinalURL, e.res.Err)
}

// cachedCrawl is the task-independent wire form of a crawl outcome.
type cachedCrawl struct {
	OK          bool     `json:"ok"`
	FinalURL    string   `json:"final_url,omitempty"`
	Chain       []string `json:"chain,omitempty"`
	Hops        int      `json:"hops,omitempty"`
	FaviconHash string   `json:"favicon,omitempty"`
	Err         string   `json:"err,omitempty"`
	// Icon carries the favicon payload (bounded by maxRetainedIcon) so
	// warm runs can rebuild the classifier's image prompts without
	// refetching.
	Icon []byte `json:"icon,omitempty"`
}

func (c *Crawler) toCached(r Result) cachedCrawl {
	ce := cachedCrawl{
		OK: r.OK, FinalURL: r.FinalURL, Chain: r.Chain,
		Hops: r.Hops, FaviconHash: r.FaviconHash,
	}
	if r.Err != nil {
		ce.Err = r.Err.Error()
	}
	if r.FaviconHash != "" {
		ce.Icon = c.IconBytes(r.FaviconHash)
	}
	return ce
}

// fromCached rebuilds a Result for t and rehydrates the icon caches so
// IconBytes serves warm runs.
func (c *Crawler) fromCached(t Task, ce cachedCrawl) Result {
	r := Result{
		Task: t, OK: ce.OK, FinalURL: ce.FinalURL, Chain: ce.Chain,
		Hops: ce.Hops, FaviconHash: ce.FaviconHash, Err: decodedErr(ce.Err),
	}
	if ce.FaviconHash != "" {
		c.favMu.Lock()
		c.favCache[urlmatch.Host(ce.FinalURL)] = ce.FaviconHash
		c.favMu.Unlock()
		if len(ce.Icon) > 0 {
			c.keepIcon(ce.FaviconHash, ce.Icon)
		}
	}
	return r
}

// decodedErr is the error a cached crawl's text decodes to.
func decodedErr(text string) error {
	if text == "" {
		return nil
	}
	return errors.New(text)
}

// decoded returns r as decoding its cache entry would give it back:
// the error reduced to its text. ok is false when a string in r is not
// valid UTF-8, which JSON would rewrite.
func decoded(r Result) (Result, bool) {
	text := ""
	if r.Err != nil {
		text = r.Err.Error()
	}
	if !utf8.ValidString(text) || !utf8.ValidString(r.FinalURL) || !utf8.ValidString(r.FaviconHash) {
		return r, false
	}
	for _, u := range r.Chain {
		if !utf8.ValidString(u) {
			return r, false
		}
	}
	r.Err = decodedErr(text)
	return r, true
}

// resolve follows the redirect chain from a canonicalized URL — the
// actual network work behind Crawl. Each hop's URL is parsed once and
// carried to the next hop as a *url.URL.
func (c *Crawler) resolve(ctx context.Context, t Task, cur string) Result {
	res := Result{Task: t}
	u, err := url.Parse(cur)
	if err != nil {
		res.Err = fmt.Errorf("crawler: %w", err)
		return res
	}
	for {
		if ctx.Err() != nil {
			res.Err = ctx.Err()
			return res
		}
		// The chain holds at most MaxHops+1 URLs: scanning it is
		// cheaper than a set.
		loop := slices.Contains(res.Chain, cur)
		res.Chain = append(res.Chain, cur)
		if loop {
			res.Err = fmt.Errorf("crawler: redirect loop at %s", cur)
			res.FinalURL = cur
			return res
		}

		nextURL, next, status, body, err := c.fetch(ctx, u, cur)
		if err != nil {
			res.Err = err
			res.FinalURL = cur
			return res
		}
		if nextURL == nil {
			res.FinalURL = cur
			res.OK = status == http.StatusOK
			if !res.OK {
				res.Err = fmt.Errorf("crawler: %s returned status %d", cur, status)
			} else if c.opts.faviconsEnabled() {
				hash, ferr := c.favicon(ctx, u, cur, body)
				res.FaviconHash = hash
				if ferr != nil {
					// The page resolved but a transport fault hid its
					// favicon. Keep the successful resolution and carry
					// the transient error so the outcome is quarantined
					// and stays out of the cache — a cached "" hash
					// would wrongly assert the site serves no icon.
					res.Err = fmt.Errorf("crawler: favicon for %s: %w", cur, ferr)
				}
			}
			return res
		}
		if res.Hops++; res.Hops > c.opts.MaxHops {
			res.Err = fmt.Errorf("crawler: redirect chain exceeds %d hops from %s", c.opts.MaxHops, t.URL)
			res.FinalURL = cur
			return res
		}
		u, cur = nextURL, next
	}
}

// fetch GETs a URL under the crawler's fault-tolerance executor,
// keyed per host. It returns the next URL to follow, parsed and
// printed (nil and "" when cur is final), the HTTP status, and the
// page body when the page is final and its body is scanned for a
// favicon. Transient faults (timeouts, resets, 429/5xx, torn bodies)
// are retried per the configured policy and feed the host's breaker;
// durable answers (404, redirect to nowhere) pass through untouched.
func (c *Crawler) fetch(ctx context.Context, u *url.URL, cur string) (nextURL *url.URL, next string, status int, body string, err error) {
	host := u.Hostname()
	err = c.exec.Do(ctx, "crawl:"+host, func(ctx context.Context) error {
		nextURL, next, status, body = nil, "", 0, ""
		if terr := c.throttle(ctx, host); terr != nil {
			return terr
		}
		ctx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
		defer cancel()
		resp, derr := c.get(ctx, u)
		if derr != nil {
			return fmt.Errorf("crawler: get %s: %w", cur, derr)
		}
		resp.Body = newCtxBody(ctx, resp.Body)
		defer resp.Body.Close()

		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			return fmt.Errorf("crawler: get %s: %w", cur, &resilience.StatusError{
				Code:       resp.StatusCode,
				RetryAfter: resilience.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()),
			})
		}
		status = resp.StatusCode
		if resp.StatusCode >= 300 && resp.StatusCode < 400 {
			loc := resp.Header.Get("Location")
			if loc == "" {
				return fmt.Errorf("crawler: %s: redirect without Location", cur)
			}
			var aerr error
			nextURL, next, aerr = resolveRef(u, loc)
			return aerr
		}

		buf := bodyBufs.Get().(*bodyBuf)
		defer bodyBufs.Put(buf)
		raw, rerr := buf.read(resp.Body, c.opts.MaxBody)
		if rerr != nil {
			return fmt.Errorf("crawler: read %s: %w", cur, rerr)
		}
		if resp.StatusCode != http.StatusOK {
			return nil // the body of a failed page is read but not scanned
		}
		html := isHTML(resp.Header.Get("Content-Type"))
		if !html && !c.opts.faviconsEnabled() {
			return nil
		}
		page := string(raw)
		if html {
			if target := MetaRefreshTarget(page); target != "" {
				var aerr error
				if nextURL, next, aerr = resolveRef(pageBase(u, page), target); aerr == nil {
					return nil
				}
				nextURL, next = nil, ""
			}
		}
		body = page
		return nil
	})
	if err != nil {
		return nil, "", 0, "", err
	}
	return nextURL, next, status, body, nil
}

// get sends one GET for u straight to the transport. http.Client.Do
// would clone the request header and, for each redirect, build the
// next request only to discard it (the crawler follows redirects
// itself, to record the chain), so get keeps only what Do adds to a
// bare RoundTrip: its guards against a nil response or body, its
// refusal of a redirect whose Location does not parse, and its
// *url.Error wrapping, which keep error text and
// resilience.IsTransient as they were.
func (c *Crawler) get(ctx context.Context, u *url.URL) (*http.Response, error) {
	req := (&http.Request{
		Method: http.MethodGet, URL: u, Host: u.Host, Header: c.header,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}).WithContext(ctx)
	resp, err := c.opts.Transport.RoundTrip(req)
	if err != nil {
		if tlsErr, ok := err.(tls.RecordHeaderError); ok && string(tlsErr.RecordHeader[:]) == "HTTP/" {
			err = http.ErrSchemeMismatch
		}
		return nil, getError(u, err)
	}
	if resp == nil {
		return nil, getError(u, fmt.Errorf("http: RoundTripper implementation (%T) returned a nil *Response with a nil error", c.opts.Transport))
	}
	if resp.Body == nil {
		if resp.ContentLength > 0 {
			return nil, getError(u, fmt.Errorf("http: RoundTripper implementation (%T) returned a *Response with content length %d but a nil Body", c.opts.Transport, resp.ContentLength))
		}
		resp.Body = http.NoBody
	}
	switch resp.StatusCode {
	case http.StatusMovedPermanently, http.StatusFound, http.StatusSeeOther,
		http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		if loc := resp.Header.Get("Location"); loc != "" {
			if _, err := url.Parse(loc); err != nil {
				resp.Body.Close()
				return nil, getError(u, fmt.Errorf("failed to parse Location header %q: %v", loc, err))
			}
		}
	}
	return resp, nil
}

// getError wraps a failed GET of u as http.Client.Do does.
func getError(u *url.URL, err error) error {
	return &url.Error{Op: "Get", URL: u.String(), Err: err}
}

// bodyBufs recycles the buffers pages and icons are read into: a crawl
// keeps a page only as the string its scanners read, and an icon only
// when it is retained, so the buffer itself is never kept.
var bodyBufs = sync.Pool{New: func() any { return new(bodyBuf) }}

// bodyBuf is a read buffer and the limit reader it reads through,
// pooled together so that reading a body allocates nothing once the
// buffer has grown.
type bodyBuf struct {
	bytes.Buffer
	lim io.LimitedReader
}

// read reads r until EOF or max bytes, as io.ReadAll over
// io.LimitReader(r, max) does. The bytes are valid until the buffer
// returns to the pool.
func (b *bodyBuf) read(r io.Reader, max int64) ([]byte, error) {
	b.Reset()
	b.lim = io.LimitedReader{R: r, N: max}
	_, err := b.ReadFrom(&b.lim)
	b.lim.R = nil
	return b.Bytes(), err
}

func isHTML(contentType string) bool {
	return strings.Contains(strings.ToLower(contentType), "text/html")
}

// resolveRef resolves a redirect target or favicon link against base
// (the URL requested, or for a reference in a page, its pageBase) and
// canonicalizes the result.
func resolveRef(base *url.URL, ref string) (*url.URL, string, error) {
	r, err := url.Parse(strings.TrimSpace(ref))
	if err != nil {
		return nil, "", fmt.Errorf("crawler: parse redirect target %q: %w", ref, err)
	}
	return urlmatch.Resolve(base, r)
}

func (c *Crawler) throttle(ctx context.Context, host string) error {
	if c.opts.PerHostDelay <= 0 || host == "" {
		return nil
	}
	for {
		c.hitMu.Lock()
		last, ok := c.lastHit[host]
		now := time.Now()
		if !ok || now.Sub(last) >= c.opts.PerHostDelay {
			c.lastHit[host] = now
			c.hitMu.Unlock()
			return nil
		}
		wait := c.opts.PerHostDelay - now.Sub(last)
		c.hitMu.Unlock()
		if err := resilience.Sleep(ctx, wait); err != nil {
			return err
		}
	}
}

// refreshURLRe reads a meta refresh's content value.
var refreshURLRe = regexp.MustCompile(`(?i)^\s*\d+\s*(?:;\s*url\s*=\s*(.+))?\s*$`)

// nextTag returns the first start tag named name, from its '<' through
// the next '>', at or after page[i:], and the offset to continue from;
// tag is "" when there is none. The name matches in any case and must
// be followed by whitespace. As in a browser, a comment ("<!--" to
// "-->", or "<!-->" and "<!--->" alone) and the text of a <script> or
// <style> element (up to its end tag) hold no tags. The scan is linear
// in the page: it looks at each '<' once, and each skip resumes past
// what it skipped.
func nextTag(page string, i int, name string) (tag string, next int) {
	for {
		j := strings.IndexByte(page[i:], '<')
		if j < 0 {
			return "", len(page)
		}
		i += j + 1 // past the '<'
		rest := page[i:]
		if strings.HasPrefix(rest, "!--") {
			if strings.HasPrefix(rest[3:], ">") || strings.HasPrefix(rest[3:], "->") {
				continue
			}
			k := strings.Index(rest[3:], "-->")
			if k < 0 {
				return "", len(page)
			}
			i += 3 + k + 3
			continue
		}
		if elem := rawTextElement(rest); elem != "" {
			i += len(elem)
			for {
				k := strings.Index(page[i:], "</")
				if k < 0 {
					return "", len(page)
				}
				if i += k + 2; tagNamed(page[i:], elem) {
					break
				}
			}
			continue
		}
		if len(rest) > len(name) && strings.EqualFold(rest[:len(name)], name) && isHTMLSpace(rest[len(name)]) {
			k := strings.IndexByte(rest, '>')
			if k < 0 {
				return "", len(page)
			}
			return page[i-1 : i+k+1], i + k + 1
		}
	}
}

// rawTextElement returns "script" or "style" when s, read just after a
// '<', starts that element, whose text holds no tags, and "" otherwise.
func rawTextElement(s string) string {
	for _, elem := range [...]string{"script", "style"} {
		if tagNamed(s, elem) {
			return elem
		}
	}
	return ""
}

// tagNamed reports whether s, read just after a '<' or "</", starts
// with the tag name elem in any case, ended by whitespace, '/' or '>'.
func tagNamed(s, elem string) bool {
	if len(s) <= len(elem) || !strings.EqualFold(s[:len(elem)], elem) {
		return false
	}
	c := s[len(elem)]
	return isHTMLSpace(c) || c == '/' || c == '>'
}

// MetaRefreshTarget extracts the redirect target of the first
// meta-refresh tag in an HTML page, or "" if none. A refresh without a
// url= clause (a pure self-reload) yields "". Only the whole attribute
// names http-equiv and content count, and character references in
// their values are decoded first, as a browser does, so a target
// written `?a=1&amp;b=2` is `?a=1&b=2`. A target written in quotes
// ends at the closing quote (`url='/a'; x` is `/a`); an unquoted one
// keeps every quote it holds (`url=/a'` is `/a'`). A tag a browser
// would not parse, in a comment or a script or style element's text,
// is not read (see nextTag).
func MetaRefreshTarget(page string) string {
	for tag, i := nextTag(page, 0, "meta"); tag != ""; tag, i = nextTag(page, i, "meta") {
		if equiv, _ := tagAttr(tag, "http-equiv"); !strings.EqualFold(strings.TrimSpace(equiv), "refresh") {
			continue
		}
		content, ok := tagAttr(tag, "content")
		if !ok {
			continue
		}
		um := refreshURLRe.FindStringSubmatch(content)
		if um == nil || um[1] == "" {
			continue
		}
		target := strings.TrimSpace(um[1])
		if target != "" && (target[0] == '"' || target[0] == '\'') {
			// A browser drops a quote that opens the URL and ends the URL
			// at the matching quote; any other quote belongs to the URL.
			target, _, _ = strings.Cut(target[1:], target[:1])
			target = strings.TrimSpace(target)
		}
		if target != "" {
			return target
		}
	}
	return ""
}

// FaviconLink extracts the favicon href declared in an HTML page, or ""
// if none is declared, with its character references decoded. It takes
// the first <link> a browser would parse (see nextTag) whose rel
// attribute lists the token "icon" (in any case, e.g. "icon", "shortcut
// icon", "alternate icon") and has a non-empty href.
func FaviconLink(page string) string {
	for tag, i := nextTag(page, 0, "link"); tag != ""; tag, i = nextTag(page, i, "link") {
		rel, _ := tagAttr(tag, "rel")
		if !hasToken(rel, "icon") {
			continue
		}
		if href, _ := tagAttr(tag, "href"); strings.TrimSpace(href) != "" {
			return strings.TrimSpace(href)
		}
	}
	return ""
}

// BaseHref returns the href of the first <base> a browser would parse
// (see nextTag) that has one, with its character references decoded,
// or "" if none has. As in a browser, a page's relative meta-refresh
// target and favicon link resolve against it (see pageBase).
func BaseHref(page string) string {
	for tag, i := nextTag(page, 0, "base"); tag != ""; tag, i = nextTag(page, i, "base") {
		if href, ok := tagAttr(tag, "href"); ok {
			return strings.TrimSpace(href)
		}
	}
	return ""
}

// pageBase returns the URL that the references on the page at u
// resolve against: its BaseHref resolved against u, or u itself when
// the page declares no base or one that does not parse.
func pageBase(u *url.URL, page string) *url.URL {
	href := BaseHref(page)
	if href == "" {
		return u
	}
	b, err := url.Parse(href)
	if err != nil {
		return u
	}
	return u.ResolveReference(b)
}

// hasToken reports whether list, split at HTML's ASCII whitespace,
// holds tok in any case.
func hasToken(list, tok string) bool {
	for _, t := range strings.FieldsFunc(list, func(r rune) bool { return r < utf8.RuneSelf && isHTMLSpace(byte(r)) }) {
		if strings.EqualFold(t, tok) {
			return true
		}
	}
	return false
}

// tagAttr returns the value of attribute name in one start tag (from
// '<' through '>'), with its character references decoded, reading
// attributes as the HTML tokenizer does: a name runs to whitespace,
// '/', '>' or '=' and matches in any case, a value is double-quoted,
// single-quoted or bare, and the first of duplicate names wins. A
// quoted value is consumed whole, so a name is never read out of
// another attribute's value. ok is false when the tag has no such
// attribute. The scan is linear in the tag and allocates nothing
// unless the value holds a character reference.
func tagAttr(tag, name string) (value string, ok bool) {
	tag = strings.TrimSuffix(tag, ">")
	i := strings.IndexAny(tag, htmlSpace) // the tag name ends here
	if i < 0 {
		return "", false
	}
	for i < len(tag) {
		for i < len(tag) && (isHTMLSpace(tag[i]) || tag[i] == '/') {
			i++
		}
		start := i
		for i < len(tag) && !isHTMLSpace(tag[i]) && tag[i] != '/' && tag[i] != '=' {
			i++
		}
		key := tag[start:i]
		for i < len(tag) && isHTMLSpace(tag[i]) {
			i++
		}
		val := ""
		if i < len(tag) && tag[i] == '=' {
			for i++; i < len(tag) && isHTMLSpace(tag[i]); i++ {
			}
			end := len(tag)
			if i < len(tag) && (tag[i] == '"' || tag[i] == '\'') {
				q := tag[i]
				i++
				if n := strings.IndexByte(tag[i:], q); n >= 0 {
					end = i + n
				}
				val, i = tag[i:end], min(end+1, len(tag))
			} else {
				if n := strings.IndexAny(tag[i:], htmlSpace); n >= 0 {
					end = i + n
				}
				val, i = tag[i:end], end
			}
		}
		if strings.EqualFold(key, name) {
			return html.UnescapeString(val), true
		}
	}
	return "", false
}

// htmlSpace is ASCII whitespace as HTML defines it.
const htmlSpace = " \t\n\f\r"

func isHTMLSpace(c byte) bool { return strings.IndexByte(htmlSpace, c) >= 0 }

// favicon fetches and hashes the favicon for a final page. It prefers
// the page's declared <link rel="icon"> and falls back to /favicon.ico.
// Durable outcomes ("" = the site serves no icon) are memoized per
// host; a transient transport fault returns an error instead, leaving
// the memo unset so a later attempt — or a healthy warm run — can
// still recover the icon. Crawls that reach a host while its favicon
// is being fetched wait for that fetch instead of repeating it, so the
// number of icon requests does not depend on scheduling.
func (c *Crawler) favicon(ctx context.Context, final *url.URL, finalURL, page string) (string, error) {
	host := final.Hostname()
	c.favMu.Lock()
	for busy := c.favBusy[host]; busy != nil; busy = c.favBusy[host] {
		c.favMu.Unlock()
		select {
		case <-busy:
		case <-ctx.Done():
			return "", ctx.Err()
		}
		c.favMu.Lock()
	}
	if h, ok := c.favCache[host]; ok {
		c.favMu.Unlock()
		return h, nil
	}
	done := make(chan struct{})
	c.favBusy[host] = done
	c.favMu.Unlock()
	defer func() {
		c.favMu.Lock()
		delete(c.favBusy, host)
		c.favMu.Unlock()
		close(done)
	}()

	hash := ""
	var transient error
	for i := 0; i < 2 && hash == ""; i++ {
		var cand *url.URL
		if i == 0 {
			link := FaviconLink(page)
			if link == "" {
				continue
			}
			var err error
			if cand, _, err = resolveRef(pageBase(final, page), link); err != nil {
				continue
			}
		} else {
			ico := *final
			ico.Path, ico.RawPath, ico.RawQuery = "/favicon.ico", "", ""
			cand = &ico
		}
		h, err := c.fetchIcon(ctx, cand)
		if err != nil {
			if resilience.IsTransient(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				transient = err
			}
			continue
		}
		hash = h
	}
	if hash == "" && transient != nil {
		return "", transient
	}
	c.favMu.Lock()
	c.favCache[host] = hash
	c.favMu.Unlock()
	return hash, nil
}

// fetchIcon retrieves and hashes one favicon candidate under the
// executor. It returns "" with a nil error when the site answers but
// serves no usable icon (a durable observation), and an error for
// transport-level faults including torn payloads.
func (c *Crawler) fetchIcon(ctx context.Context, cand *url.URL) (string, error) {
	host := cand.Hostname()
	var hash string
	err := c.exec.Do(ctx, "crawl:"+host, func(ctx context.Context) error {
		hash = ""
		if terr := c.throttle(ctx, host); terr != nil {
			return terr
		}
		ctx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
		defer cancel()
		resp, derr := c.get(ctx, cand)
		if derr != nil {
			return fmt.Errorf("crawler: get icon %s: %w", cand, derr)
		}
		resp.Body = newCtxBody(ctx, resp.Body)
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			return fmt.Errorf("crawler: get icon %s: %w", cand, &resilience.StatusError{
				Code:       resp.StatusCode,
				RetryAfter: resilience.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()),
			})
		}
		buf := bodyBufs.Get().(*bodyBuf)
		defer bodyBufs.Put(buf)
		raw, rerr := buf.read(resp.Body, c.opts.MaxBody)
		if rerr != nil {
			// A torn icon body: the hash of a partial payload would be
			// wrong, and "" would wrongly claim the site serves none.
			return fmt.Errorf("crawler: read icon %s: %w", cand, rerr)
		}
		if resp.StatusCode != http.StatusOK || len(raw) == 0 {
			return nil
		}
		sum := sha256.Sum256(raw)
		hash = hex.EncodeToString(sum[:])
		c.keepIcon(hash, raw)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hash, nil
}

// ExecStats reports the crawler's fault-tolerance counters (attempts,
// retries, breaker denials and trips) for the run report.
func (c *Crawler) ExecStats() resilience.ExecStats { return c.exec.Stats() }

// OpenBreakers lists hosts whose circuits are currently not closed.
func (c *Crawler) OpenBreakers() []string {
	if c.opts.Breakers == nil {
		return nil
	}
	return c.opts.Breakers.Open()
}

// maxRetainedIcon bounds per-icon memory in the hash→bytes cache.
const maxRetainedIcon = 64 << 10

// IconBytes returns the favicon payload for a hash observed during
// crawling, or nil. The classifier's step 2 attaches these bytes to its
// LLM prompts.
func (c *Crawler) IconBytes(hash string) []byte {
	c.iconMu.Lock()
	defer c.iconMu.Unlock()
	return c.iconBytes[hash]
}

// keepIcon retains a copy of icon, which may be a pooled read buffer,
// as hash's payload, unless one is already kept or icon is larger than
// maxRetainedIcon.
func (c *Crawler) keepIcon(hash string, icon []byte) {
	if len(icon) > maxRetainedIcon {
		return
	}
	c.iconMu.Lock()
	if _, ok := c.iconBytes[hash]; !ok {
		c.iconBytes[hash] = append(make([]byte, 0, len(icon)), icon...)
	}
	c.iconMu.Unlock()
}

// CrawlAll resolves all tasks on Concurrency workers. Tasks whose
// reported URLs canonicalize identically are deduplicated: each unique
// canonical URL is fetched exactly once and the outcome is fanned back
// out to every task that shares it (different networks routinely
// report the same website — "https://corp.example" vs
// "corp.example/"). Results are returned in task order regardless of
// completion order. The context cancels outstanding work: a URL no
// worker has claimed by then is not fetched, and its tasks carry
// ctx.Err().
func (c *Crawler) CrawlAll(ctx context.Context, tasks []Task) []Result {
	results := make([]Result, len(tasks))
	// group[i] is task i's group of tasks sharing a canonical URL (-1
	// when its URL does not canonicalize), and first[g] the task group
	// g is crawled for.
	group := make([]int32, len(tasks))
	index := make(map[string]int32, len(tasks))
	var first []int32
	var canons []string
	for i, t := range tasks {
		canon, err := t.Canonical()
		if err != nil {
			results[i] = Result{Task: t, Err: err}
			group[i] = -1
			continue
		}
		g, ok := index[canon]
		if !ok {
			g = int32(len(first))
			index[canon] = g
			first = append(first, int32(i))
			canons = append(canons, canon)
		}
		group[i] = g
	}
	fanout.Each(len(first), c.opts.Concurrency, func(g int) {
		t := tasks[first[g]]
		r := Result{Task: t, Err: ctx.Err()}
		if r.Err == nil {
			r = c.crawl(ctx, t, canons[g])
		}
		results[first[g]] = r
	})
	// Fan each shared outcome back out; the Chain slice is shared
	// read-only across the group's results.
	for i, g := range group {
		if g >= 0 && int(first[g]) != i {
			r := results[first[g]]
			r.Task = tasks[i]
			results[i] = r
		}
	}
	return results
}

// FinalURLs converts successful results into the final-URL records the
// matching module consumes.
func FinalURLs(results []Result) []urlmatch.FinalURL {
	var out []urlmatch.FinalURL
	for _, r := range results {
		if r.OK {
			out = append(out, urlmatch.FinalURL{ASN: r.Task.ASN, URL: r.FinalURL})
		}
	}
	return out
}
