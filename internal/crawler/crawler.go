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
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

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
	opts   Options
	client *http.Client
	exec   *resilience.Executor

	mu        sync.Mutex
	lastHit   map[string]time.Time
	favCache  map[string]string        // final host -> favicon hash
	favBusy   map[string]chan struct{} // final host -> closed when its favicon fetch ends
	iconBytes map[string][]byte        // favicon hash -> icon payload
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
		opts: opts,
		exec: &resilience.Executor{Policy: opts.Retry, Breakers: opts.Breakers},
		client: &http.Client{
			Transport: opts.Transport,
			// Redirects are followed manually so the chain is recorded
			// and meta refreshes are handled uniformly.
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
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
	canon, err := urlmatch.Canonicalize(t.URL)
	if err != nil {
		return Result{Task: t, Err: fmt.Errorf("crawler: %w", err)}
	}
	if c.opts.Cache == nil {
		return c.resolve(ctx, t, canon)
	}
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
	var ce cachedCrawl
	if err := json.Unmarshal(raw, &ce); err != nil {
		return Result{Task: t, Err: fmt.Errorf("crawler: decode cached crawl: %w", err)}
	}
	return c.fromCached(t, ce)
}

// cacheKey fingerprints a canonical URL together with every option
// that shapes the outcome. Transport identity is deliberately
// excluded: a cache directory belongs to one web (live or one
// simulated universe), which the caller controls.
func (c *Crawler) cacheKey(canon string) string {
	return cache.Key("crawl", canon,
		strconv.Itoa(c.opts.MaxHops),
		strconv.FormatInt(c.opts.MaxBody, 10),
		strconv.FormatBool(c.opts.SkipFavicons),
		c.opts.UserAgent,
	)
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
		Hops: ce.Hops, FaviconHash: ce.FaviconHash,
	}
	if ce.Err != "" {
		r.Err = errors.New(ce.Err)
	}
	if ce.FaviconHash != "" {
		c.mu.Lock()
		c.favCache[urlmatch.Host(ce.FinalURL)] = ce.FaviconHash
		if _, ok := c.iconBytes[ce.FaviconHash]; !ok && len(ce.Icon) > 0 {
			c.iconBytes[ce.FaviconHash] = ce.Icon
		}
		c.mu.Unlock()
	}
	return r
}

// resolve follows the redirect chain from a canonicalized URL — the
// actual network work behind Crawl.
func (c *Crawler) resolve(ctx context.Context, t Task, cur string) Result {
	res := Result{Task: t}
	seen := make(map[string]bool)
	for {
		if ctx.Err() != nil {
			res.Err = ctx.Err()
			return res
		}
		res.Chain = append(res.Chain, cur)
		if seen[cur] {
			res.Err = fmt.Errorf("crawler: redirect loop at %s", cur)
			res.FinalURL = cur
			return res
		}
		seen[cur] = true

		next, status, body, err := c.fetch(ctx, cur)
		if err != nil {
			res.Err = err
			res.FinalURL = cur
			return res
		}
		if next == "" {
			res.FinalURL = cur
			res.OK = status == http.StatusOK
			if !res.OK {
				res.Err = fmt.Errorf("crawler: %s returned status %d", cur, status)
			} else if c.opts.faviconsEnabled() {
				hash, ferr := c.favicon(ctx, cur, body)
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
		cur = next
	}
}

// fetch GETs a URL under the crawler's fault-tolerance executor,
// keyed per host. It returns the next URL to follow ("" when cur is
// final), the HTTP status, and the page body when the page is final.
// Transient faults (timeouts, resets, 429/5xx, torn bodies) are
// retried per the configured policy and feed the host's breaker;
// durable answers (404, redirect to nowhere) pass through untouched.
func (c *Crawler) fetch(ctx context.Context, cur string) (next string, status int, body string, err error) {
	host := urlmatch.Host(cur)
	err = c.exec.Do(ctx, "crawl:"+host, func(ctx context.Context) error {
		next, status, body = "", 0, ""
		if terr := c.throttle(ctx, host); terr != nil {
			return terr
		}
		ctx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
		defer cancel()
		req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, cur, nil)
		if rerr != nil {
			return fmt.Errorf("crawler: build request: %w", rerr)
		}
		req.Header.Set("User-Agent", c.opts.UserAgent)
		resp, derr := c.client.Do(req)
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
			abs, aerr := resolveRef(cur, loc)
			if aerr != nil {
				return aerr
			}
			next = abs
			return nil
		}

		raw, rerr := io.ReadAll(io.LimitReader(resp.Body, c.opts.MaxBody))
		if rerr != nil {
			return fmt.Errorf("crawler: read %s: %w", cur, rerr)
		}
		page := string(raw)
		if resp.StatusCode == http.StatusOK && isHTML(resp.Header.Get("Content-Type")) {
			if target := MetaRefreshTarget(page); target != "" {
				if abs, aerr := resolveRef(cur, target); aerr == nil {
					next = abs
					return nil
				}
			}
		}
		body = page
		return nil
	})
	if err != nil {
		return "", 0, "", err
	}
	return next, status, body, nil
}

func isHTML(contentType string) bool {
	return strings.Contains(strings.ToLower(contentType), "text/html")
}

func resolveRef(base, ref string) (string, error) {
	b, err := url.Parse(base)
	if err != nil {
		return "", fmt.Errorf("crawler: parse base %q: %w", base, err)
	}
	r, err := url.Parse(strings.TrimSpace(ref))
	if err != nil {
		return "", fmt.Errorf("crawler: parse redirect target %q: %w", ref, err)
	}
	return urlmatch.Canonicalize(b.ResolveReference(r).String())
}

func (c *Crawler) throttle(ctx context.Context, host string) error {
	if c.opts.PerHostDelay <= 0 || host == "" {
		return nil
	}
	for {
		c.mu.Lock()
		last, ok := c.lastHit[host]
		now := time.Now()
		if !ok || now.Sub(last) >= c.opts.PerHostDelay {
			c.lastHit[host] = now
			c.mu.Unlock()
			return nil
		}
		wait := c.opts.PerHostDelay - now.Sub(last)
		c.mu.Unlock()
		if err := resilience.Sleep(ctx, wait); err != nil {
			return err
		}
	}
}

// metaRefreshRe matches <meta http-equiv="refresh" content="N; url=…">
// in either attribute order, with flexible quoting — the minimum a
// browser would honour.
var (
	metaTagRe    = regexp.MustCompile(`(?is)<meta\s[^>]*>`)
	httpEquivRe  = regexp.MustCompile(`(?i)http-equiv\s*=\s*["']?\s*refresh\s*["']?`)
	contentRe    = regexp.MustCompile(`(?i)content\s*=\s*("([^"]*)"|'([^']*)'|([^\s>]+))`)
	refreshURLRe = regexp.MustCompile(`(?i)^\s*\d+\s*(?:;\s*url\s*=\s*(.+))?\s*$`)
)

// MetaRefreshTarget extracts the redirect target of the first
// meta-refresh tag in an HTML page, or "" if none. A refresh without a
// url= clause (a pure self-reload) yields "".
func MetaRefreshTarget(page string) string {
	for _, tag := range metaTagRe.FindAllString(page, -1) {
		if !httpEquivRe.MatchString(tag) {
			continue
		}
		m := contentRe.FindStringSubmatch(tag)
		if m == nil {
			continue
		}
		content := m[2] + m[3] + m[4] // whichever quoting variant matched
		um := refreshURLRe.FindStringSubmatch(content)
		if um == nil || um[1] == "" {
			continue
		}
		target := strings.TrimSpace(um[1])
		target = strings.Trim(target, `"'`)
		if target != "" {
			return target
		}
	}
	return ""
}

// faviconLinkRe extracts <link rel="icon" href="…"> (and shortcut icon).
var faviconLinkRe = regexp.MustCompile(`(?is)<link\s[^>]*rel\s*=\s*["']?(?:shortcut\s+)?icon["']?[^>]*>`)
var hrefRe = regexp.MustCompile(`(?i)href\s*=\s*("([^"]*)"|'([^']*)'|([^\s>]+))`)

// FaviconLink extracts the favicon href declared in an HTML page, or ""
// if none is declared.
func FaviconLink(page string) string {
	tag := faviconLinkRe.FindString(page)
	if tag == "" {
		return ""
	}
	m := hrefRe.FindStringSubmatch(tag)
	if m == nil {
		return ""
	}
	return strings.TrimSpace(m[2] + m[3] + m[4])
}

// favicon fetches and hashes the favicon for a final page. It prefers
// the page's declared <link rel="icon"> and falls back to /favicon.ico.
// Durable outcomes ("" = the site serves no icon) are memoized per
// host; a transient transport fault returns an error instead, leaving
// the memo unset so a later attempt — or a healthy warm run — can
// still recover the icon. Crawls that reach a host while its favicon
// is being fetched wait for that fetch instead of repeating it, so the
// number of icon requests does not depend on scheduling.
func (c *Crawler) favicon(ctx context.Context, finalURL, page string) (string, error) {
	host := urlmatch.Host(finalURL)
	c.mu.Lock()
	for busy := c.favBusy[host]; busy != nil; busy = c.favBusy[host] {
		c.mu.Unlock()
		select {
		case <-busy:
		case <-ctx.Done():
			return "", ctx.Err()
		}
		c.mu.Lock()
	}
	if h, ok := c.favCache[host]; ok {
		c.mu.Unlock()
		return h, nil
	}
	done := make(chan struct{})
	c.favBusy[host] = done
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.favBusy, host)
		c.mu.Unlock()
		close(done)
	}()

	var candidates []string
	if link := FaviconLink(page); link != "" {
		if abs, err := resolveRef(finalURL, link); err == nil {
			candidates = append(candidates, abs)
		}
	}
	if u, err := url.Parse(finalURL); err == nil {
		u.Path = "/favicon.ico"
		u.RawQuery = ""
		candidates = append(candidates, u.String())
	}

	hash := ""
	var transient error
	for _, cand := range candidates {
		h, err := c.fetchIcon(ctx, cand)
		if err != nil {
			if resilience.IsTransient(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				transient = err
			}
			continue
		}
		if h != "" {
			hash = h
			break
		}
	}
	if hash == "" && transient != nil {
		return "", transient
	}
	c.mu.Lock()
	c.favCache[host] = hash
	c.mu.Unlock()
	return hash, nil
}

// fetchIcon retrieves and hashes one favicon candidate under the
// executor. It returns "" with a nil error when the site answers but
// serves no usable icon (a durable observation), and an error for
// transport-level faults including torn payloads.
func (c *Crawler) fetchIcon(ctx context.Context, cand string) (string, error) {
	host := urlmatch.Host(cand)
	var hash string
	err := c.exec.Do(ctx, "crawl:"+host, func(ctx context.Context) error {
		hash = ""
		if terr := c.throttle(ctx, host); terr != nil {
			return terr
		}
		ctx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
		defer cancel()
		req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, cand, nil)
		if rerr != nil {
			return fmt.Errorf("crawler: build icon request: %w", rerr)
		}
		req.Header.Set("User-Agent", c.opts.UserAgent)
		resp, derr := c.client.Do(req)
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
		raw, rerr := io.ReadAll(io.LimitReader(resp.Body, c.opts.MaxBody))
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
		c.mu.Lock()
		if _, ok := c.iconBytes[hash]; !ok && len(raw) <= maxRetainedIcon {
			// Copy out of io.ReadAll's buffer: its capacity, at least
			// 512 bytes, would stay alive in the map for the whole run.
			icon := make([]byte, len(raw))
			copy(icon, raw)
			c.iconBytes[hash] = icon
		}
		c.mu.Unlock()
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.iconBytes[hash]
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
	groups := make(map[string][]int, len(tasks))
	order := make([]string, 0, len(tasks))
	for i, t := range tasks {
		canon, err := urlmatch.Canonicalize(t.URL)
		if err != nil {
			results[i] = Result{Task: t, Err: fmt.Errorf("crawler: %w", err)}
			continue
		}
		if _, ok := groups[canon]; !ok {
			order = append(order, canon)
		}
		groups[canon] = append(groups[canon], i)
	}
	fanout.Each(len(order), c.opts.Concurrency, func(g int) {
		idxs := groups[order[g]]
		r := Result{Err: ctx.Err()}
		if r.Err == nil {
			r = c.Crawl(ctx, tasks[idxs[0]])
		}
		// Fan the shared outcome back out; the Chain slice is shared
		// read-only across the group's results.
		for _, i := range idxs {
			r.Task = tasks[i]
			results[i] = r
		}
	})
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
