// Package admission is borgesd's overload-protection layer: the
// decision, made before any handler runs, of whether a request may
// consume serving capacity right now — and if not, how to refuse it so
// the client backs off instead of retrying into the collapse.
//
// Three mechanisms compose:
//
//   - An adaptive concurrency limiter (AIMD on observed latency vs. a
//     target, in the spirit of gradient/Vegas-style limiters): the
//     in-flight ceiling grows additively while completions land under
//     the latency target and shrinks multiplicatively when they run
//     over, so the server discovers its own capacity instead of
//     trusting a static guess. A small bounded wait queue absorbs
//     jitter for high-priority requests; queued entries respect the
//     request's context deadline.
//   - Per-client token buckets keyed by X-Api-Key (or client IP),
//     held in an LRU so a scan of the IPv4 space cannot balloon
//     memory; one abusive client is throttled with 429 before it can
//     push the shared limiter into shedding everyone.
//   - Priority classes: Critical traffic (health, metrics, admin) is
//     never shed and consumes no limiter capacity; Point lookups shed
//     last (they may queue); Search — the expensive scan — sheds
//     first and additionally "browns out" under pressure, signalling
//     the handler to serve a cheaper, capped variant.
//
// Every refusal carries a Retry-After hint, and every decision is
// observable through the borgesd_admission_* families the controller
// registers on the server's metrics registry (internal/obs).
package admission

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/nu-aqualab/borges/internal/obs"
)

// Class is a request's admission priority.
type Class int

const (
	// Critical requests (/healthz, /metrics, /admin/*) are never shed
	// and bypass the limiter entirely: an overloaded server must stay
	// observable and operable, or operators cannot help it recover.
	Critical Class = iota
	// Point requests (/v1/as, /v1/org, /v1/stats) are cheap indexed
	// lookups; they shed last and may wait briefly in the bounded
	// queue for a slot.
	Point
	// Search requests (/v1/search) scan the name index; they shed
	// first and never queue while ShedSearchFirst is set, and brown
	// out (capped, cheaper serving) under pressure short of shedding.
	Search
	// Bulk requests (/v1/bulk) stream thousands of lookups in one
	// call: each holds exactly one limiter slot for its whole
	// duration, never queues, and sheds as soon as the limiter is
	// saturated — before Point (which may queue for a slot) but after
	// Search (which additionally browns out and sheds under
	// ShedSearchFirst pressure). A bulk completion does not feed the
	// AIMD controller: its latency is a function of request size, not
	// service health, and one long stream must not be read as a
	// latency regression that collapses the limit.
	Bulk
)

// String names the class for metrics labels.
func (c Class) String() string {
	switch c {
	case Critical:
		return "critical"
	case Point:
		return "point"
	case Search:
		return "search"
	case Bulk:
		return "bulk"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Config tunes a Controller. The zero value is not valid; use
// MaxInflight > 0 to enable admission control at all.
type Config struct {
	// MaxInflight is the concurrency ceiling and the limiter's
	// starting point; the adaptive limit moves in [MinInflight,
	// MaxInflight]. Required (> 0).
	MaxInflight int
	// MinInflight floors the adaptive limit (default 1): even a
	// melting server keeps admitting a trickle so recovery can be
	// observed.
	MinInflight int
	// TargetLatency is the per-request latency the limiter steers
	// toward (default 150ms): completions under it grow the limit
	// additively, completions over it shrink it multiplicatively.
	TargetLatency time.Duration
	// QueueDepth bounds the wait queue for Point-class requests
	// (default 2×MaxInflight). A queued request is admitted when a
	// slot frees, or shed when its context deadline fires first.
	QueueDepth int
	// Rate is the per-client sustained request rate in tokens/sec;
	// 0 disables per-client rate limiting.
	Rate float64
	// Burst is the per-client bucket capacity (default max(1, Rate)).
	Burst int
	// MaxClients bounds the number of tracked client buckets; the
	// least-recently-seen bucket is evicted beyond it (default 4096).
	MaxClients int
	// ShedSearchFirst makes Search-class requests shed as soon as the
	// limiter is saturated instead of competing with point lookups
	// for queue slots (default in borgesd: on).
	ShedSearchFirst bool
	// BrownoutLimit caps a browned-out search's result count
	// (default 10).
	BrownoutLimit int
	// RetryAfter is the base back-off hint attached to load sheds
	// (default 1s). Rate-limit refusals compute their own hint from
	// the bucket deficit.
	RetryAfter time.Duration
	// Now overrides the clock in tests.
	Now func() time.Time
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MinInflight <= 0 {
		c.MinInflight = 1
	}
	if c.TargetLatency <= 0 {
		c.TargetLatency = 150 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxInflight
	}
	if c.Burst <= 0 {
		c.Burst = int(math.Max(1, c.Rate))
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 4096
	}
	if c.BrownoutLimit <= 0 {
		c.BrownoutLimit = 10
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Decision is the outcome of one admission check.
type Decision struct {
	// Admitted reports whether the request may proceed.
	Admitted bool
	// Status is the HTTP status to refuse with (429 for per-client
	// rate limits, 503 for load sheds) when !Admitted.
	Status int
	// RetryAfter is the back-off hint to advertise on refusals.
	RetryAfter time.Duration
	// Reason labels the refusal for logs and metrics: "ratelimit",
	// "saturated", "queue-full", or "deadline".
	Reason string
}

// Stats is an instantaneous, race-free view of a controller's state,
// for tests and the /metrics rendering.
type Stats struct {
	// Inflight and Limit are the limiter's current occupancy and
	// adaptive ceiling; QueueDepth is the number of waiting requests.
	Inflight   int
	Limit      float64
	QueueDepth int
	// ShedPoint, ShedSearch, and ShedBulk count load-shed refusals by
	// class; QueueTimeouts counts queued requests whose deadline fired.
	ShedPoint     int64
	ShedSearch    int64
	ShedBulk      int64
	QueueTimeouts int64
	// RateLimited counts per-client 429 refusals; BucketEvictions
	// counts LRU evictions of idle client buckets.
	RateLimited     int64
	BucketEvictions int64
	// Brownouts counts searches served in browned-out (capped,
	// cheap) mode.
	Brownouts int64
}

// Controller is the composed admission layer a server consults once
// per request. It is safe for concurrent use.
type Controller struct {
	cfg  Config
	lim  *limiter
	rate *buckets // nil when per-client limiting is disabled

	shedPoint     atomic.Int64
	shedSearch    atomic.Int64
	shedBulk      atomic.Int64
	queueTimeouts atomic.Int64
	rateLimited   atomic.Int64
	brownouts     atomic.Int64
}

// New builds a Controller. It returns nil when cfg.MaxInflight <= 0 —
// a nil *Controller is the "admission disabled" state and is not safe
// to call.
func New(cfg Config) *Controller {
	if cfg.MaxInflight <= 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, lim: newLimiter(cfg)}
	if cfg.Rate > 0 {
		c.rate = newBuckets(cfg.Rate, float64(cfg.Burst), cfg.MaxClients, cfg.Now)
	}
	return c
}

// Admit decides whether a request of the given class from the given
// client may proceed. When admitted, the returned release function
// MUST be called exactly once with the request's observed latency —
// it returns the capacity slot and feeds the AIMD controller. When
// refused, release is nil and the Decision carries the status and
// Retry-After hint to respond with.
func (c *Controller) Admit(ctx context.Context, class Class, client string) (release func(latency time.Duration), d Decision) {
	if class == Critical {
		// Never shed, never counted: observability and control must
		// survive the exact overloads this package exists for.
		return func(time.Duration) {}, Decision{Admitted: true}
	}
	if c.rate != nil {
		if ok, wait := c.rate.allow(client); !ok {
			c.rateLimited.Add(1)
			return nil, Decision{
				Status:     http.StatusTooManyRequests,
				RetryAfter: wait,
				Reason:     "ratelimit",
			}
		}
	}
	ok, reason := c.lim.acquire(ctx, class)
	if !ok {
		switch class {
		case Search:
			c.shedSearch.Add(1)
		case Bulk:
			c.shedBulk.Add(1)
		default:
			c.shedPoint.Add(1)
		}
		if reason == "deadline" {
			c.queueTimeouts.Add(1)
		}
		return nil, Decision{
			Status:     http.StatusServiceUnavailable,
			RetryAfter: c.cfg.RetryAfter,
			Reason:     reason,
		}
	}
	// Bulk completions return their slot without steering AIMD (see
	// the Bulk class comment).
	observe := class != Bulk
	return func(latency time.Duration) { c.lim.release(latency, observe) }, Decision{Admitted: true}
}

// BrownoutSearch reports whether searches should brown out right now
// — the limiter is under pressure but not yet shedding — and the
// result cap to apply. A true return is counted as one brownout.
func (c *Controller) BrownoutSearch() (capLimit int, active bool) {
	if !c.lim.underPressure() {
		return 0, false
	}
	c.brownouts.Add(1)
	return c.cfg.BrownoutLimit, true
}

// Stats snapshots the controller's observable state.
func (c *Controller) Stats() Stats {
	inflight, limit, queued := c.lim.snapshot()
	st := Stats{
		Inflight:      inflight,
		Limit:         limit,
		QueueDepth:    queued,
		ShedPoint:     c.shedPoint.Load(),
		ShedSearch:    c.shedSearch.Load(),
		ShedBulk:      c.shedBulk.Load(),
		QueueTimeouts: c.queueTimeouts.Load(),
		RateLimited:   c.rateLimited.Load(),
		Brownouts:     c.brownouts.Load(),
	}
	if c.rate != nil {
		st.BucketEvictions = c.rate.evicted()
	}
	return st
}

// Register declares the borgesd_admission_* families on a server's
// registry.
func (c *Controller) Register(reg *obs.Registry) {
	reg.Gauge("borgesd_admission_inflight", "Requests currently holding a limiter slot.", func() float64 {
		return float64(c.Stats().Inflight)
	})
	reg.Gauge("borgesd_admission_limit", "Current adaptive concurrency limit (AIMD).", func() float64 {
		return c.Stats().Limit
	})
	reg.Gauge("borgesd_admission_queue_depth", "Requests waiting for a limiter slot.", func() float64 {
		return float64(c.Stats().QueueDepth)
	})
	reg.Add("borgesd_admission_sheds_total", obs.Counter, "Load-shed refusals (503), by class.", func(emit obs.Emit) {
		emit(float64(c.shedPoint.Load()), "class", "point")
		emit(float64(c.shedSearch.Load()), "class", "search")
		emit(float64(c.shedBulk.Load()), "class", "bulk")
	})
	reg.Counter("borgesd_admission_queue_timeouts_total", "Queued requests shed because their deadline fired first.", obs.Int64(&c.queueTimeouts))
	reg.Counter("borgesd_admission_ratelimited_total", "Per-client rate-limit refusals (429).", obs.Int64(&c.rateLimited))
	reg.Counter("borgesd_admission_bucket_evictions_total", "Client token buckets evicted from the LRU.", func() float64 {
		return float64(c.Stats().BucketEvictions)
	})
	reg.Counter("borgesd_admission_brownouts_total", "Searches served in browned-out (capped, cheap) mode.", obs.Int64(&c.brownouts))
}
