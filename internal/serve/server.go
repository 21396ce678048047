package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nu-aqualab/borges/internal/admission"
	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/mapdiff"
	"github.com/nu-aqualab/borges/internal/obs"
	"github.com/nu-aqualab/borges/internal/snapbin"
	"github.com/nu-aqualab/borges/internal/vfs"
)

// DeltaSource produces the mapping delta a delta reload applies to
// the serving snapshot — typically by parsing a JSONL delta file
// written by borges-diff -delta (mapdiff.ReadDelta).
type DeltaSource func(ctx context.Context) (*mapdiff.Delta, error)

// DeltaFileSource returns a DeltaSource parsing a JSONL delta file.
func DeltaFileSource(path string) DeltaSource {
	return func(ctx context.Context) (*mapdiff.Delta, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return mapdiff.ReadDelta(f)
	}
}

// Options tune a Server.
type Options struct {
	// Prepared supplies the replacement snapshot for every full
	// /admin/reload: decoded from a binary artifact or built from a
	// JSONL mapping by SnapshotFileSource, built from a pipeline run, or
	// staged by a fleet replica. The snapshot arrives with its label and
	// health already set. Nil rejects full reloads with 501 Not
	// Implemented.
	Prepared PreparedSource
	// DeltaSource supplies mapping deltas for /admin/reload?mode=delta.
	// Nil rejects delta reloads with 501 Not Implemented.
	DeltaSource DeltaSource
	// RequestTimeout bounds each request's handling time (default 10s).
	RequestTimeout time.Duration
	// Logger receives one record per request, shed, reload, persist,
	// rollback, scrub finding, listen and shutdown. Nil logs nothing.
	Logger *slog.Logger
	// EnablePprof mounts the net/http/pprof handlers under
	// /debug/pprof/. Off by default: the profiling surface exposes heap
	// and goroutine internals and should only be reachable when the
	// operator asks for it. CPU profile captures are bounded by the
	// server's write timeout (2× RequestTimeout), so pass
	// ?seconds= values below that.
	EnablePprof bool
	// Admission enables overload protection (adaptive concurrency
	// limiting, per-client rate limiting, priority shedding, search
	// brownout) when non-nil with MaxInflight > 0. Nil accepts
	// everything — the pre-admission behaviour.
	Admission *admission.Config
	// BulkMaxLines caps the number of input lines one /v1/bulk request
	// may carry (default 1<<20). The cap bounds how long a single
	// stream can hold its admission slot; past it the response ends
	// with a terminal error line.
	BulkMaxLines int
	// MaxBodyBytes bounds every request body the server reads
	// (default 64 MiB), enforced with http.MaxBytesReader.
	MaxBodyBytes int64
	// WatchBuffer is the per-subscriber event queue depth for
	// /v1/watch (default 64). A subscriber whose queue is full when a
	// reload publishes is evicted rather than allowed to block the
	// swap or balloon memory.
	WatchBuffer int
	// OnSwap, when non-nil, observes every successfully published
	// snapshot — the initial one is not reported, only reload swaps.
	// It runs with the reload latch held (swaps are serialized), so a
	// slow callback delays subsequent reloads, never lookups. Fleet
	// distributors use it to publish artifacts; -snapshot-out uses it
	// to persist the latest snapshot for the next cold start.
	OnSwap func(*Snapshot)
	// Canary tunes the pre-promotion check gating every snapshot swap.
	// The zero value is on with defaults; set Canary.Disable to promote
	// unchecked.
	Canary CanaryConfig
	// Generations, when non-nil, records every published snapshot into
	// an on-disk ring of verified artifacts, enables POST
	// /admin/rollback, and exposes lineage in /v1/stats.
	Generations *GenerationRing
	// SnapshotOut, when non-empty, persists every published snapshot as
	// a snapbin artifact at this path (the next cold start's
	// -snapshot-in). Persistence is best-effort: a failed write is
	// logged and counted (borgesd_snapshot_persist_errors_total) but
	// never fails or blocks the swap.
	SnapshotOut string
	// FS is the filesystem SnapshotOut persistence and the snapshot-out
	// scrub target use (nil = the real one). Chaos tests substitute a
	// faultinject filesystem.
	FS vfs.FS
	// ScrubInterval enables the background integrity scrubber: every
	// interval the server re-verifies the generation ring, the
	// SnapshotOut artifact, and every ScrubTargets entry, then probes
	// the serving snapshot and auto-rolls back to the newest verified
	// generation if the probe fails. 0 disables the loop (ScrubOnce
	// still works on demand).
	ScrubInterval time.Duration
	// ScrubTargets adds caller-owned stores to the scrub cycle — the
	// fleet replica registers its last-good artifact here.
	ScrubTargets []ScrubTarget
	// now overrides the clock in tests.
	now func() time.Time
	// healthProbe, when set, replaces the post-scrub probe (the canary
	// re-run against the serving snapshot) in tests.
	healthProbe func(*Snapshot) error
	// testHold, when set, is called with the endpoint name after
	// admission but before the handler runs. Load tests use it to pin
	// admitted requests in-flight deterministically.
	testHold func(endpoint string)
}

// Server serves an AS-to-Organization snapshot over HTTP. The current
// Snapshot sits behind an atomic pointer: request handlers load it once
// and serve the whole request from that immutable view, so a concurrent
// reload never tears a response or drops an in-flight request.
type Server struct {
	snap    atomic.Pointer[Snapshot]
	metrics serverMetrics
	// registry renders /metrics: the server's own families, then any
	// a caller adds through Registry (the fleet's borgesd_fleet_*).
	registry obs.Registry
	opts     Options
	mux      *http.ServeMux
	// admission is the overload-protection layer (nil = disabled). It
	// lives on the Server, not the Snapshot: limiter state, client
	// buckets, and shed counters survive hot reloads by construction.
	admission *admission.Controller
	// reloading serializes reloads so concurrent /admin/reload posts
	// cannot interleave validate-then-swap sequences.
	reloading chan struct{}
	// watch fans snapshot-change events out to /v1/watch subscribers.
	// Like admission it lives on the Server: subscriptions survive hot
	// reloads — reloads are exactly what they exist to observe.
	watch *watchHub
}

// NewServer returns a Server publishing the given initial snapshot.
func NewServer(snap *Snapshot, opts Options) (*Server, error) {
	if snap == nil {
		return nil, fmt.Errorf("serve: nil initial snapshot")
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 10 * time.Second
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	if opts.BulkMaxLines <= 0 {
		opts.BulkMaxLines = defaultBulkMaxLines
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = defaultMaxBodyBytes
	}
	if opts.WatchBuffer <= 0 {
		opts.WatchBuffer = defaultWatchBuffer
	}
	opts.Logger = obs.OrDiscard(opts.Logger)
	s := &Server{
		opts:      opts,
		mux:       http.NewServeMux(),
		reloading: make(chan struct{}, 1),
	}
	s.watch = newWatchHub(opts.WatchBuffer)
	if opts.Admission != nil && opts.Admission.MaxInflight > 0 {
		cfg := *opts.Admission
		if cfg.Now == nil {
			cfg.Now = opts.now
		}
		s.admission = admission.New(cfg)
	}
	s.registerMetrics()
	if ring := opts.Generations; ring != nil {
		ring.register(&s.registry)
	}
	s.watch.register(&s.registry)
	registerMemMetrics(&s.registry)
	if s.admission != nil {
		s.admission.Register(&s.registry)
	}
	s.snap.Store(snap)
	// Whatever made the snapshot is garbage now; see collectRetired.
	collectRetired()
	timeout := opts.RequestTimeout
	s.mux.HandleFunc("GET /v1/as/{asn}", s.instrument("as", admission.Point, timeout, s.handleAS))
	s.mux.HandleFunc("GET /v1/org/{id}", s.instrument("org", admission.Point, timeout, s.handleOrg))
	s.mux.HandleFunc("GET /v1/search", s.instrument("search", admission.Search, timeout, s.handleSearch))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", admission.Point, timeout, s.handleStats))
	// Bulk and watch stream, so they get no per-request timeout (see
	// instrument): bulk is bounded by MaxBodyBytes/BulkMaxLines, watch
	// by client disconnect/shutdown.
	s.mux.HandleFunc("POST /v1/bulk", s.instrument("bulk", admission.Bulk, 0, s.handleBulk))
	s.mux.HandleFunc("GET /v1/watch", s.instrument("watch", admission.Critical, 0, s.handleWatch))
	s.mux.HandleFunc("POST /admin/reload", s.instrument("reload", admission.Critical, timeout, s.handleReload))
	s.mux.HandleFunc("POST /admin/rollback", s.instrument("rollback", admission.Critical, timeout, s.handleRollback))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", admission.Critical, timeout, s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opts.EnablePprof {
		// Mounted directly on the mux, not via instrument: the
		// per-request timeout would cut off long CPU/trace captures, and
		// profiler hits should not skew the service's latency metrics.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Snapshot returns the currently served snapshot.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Registry returns the registry /metrics renders. A family added to it
// after NewServer prints after the server's own.
func (s *Server) Registry() *obs.Registry { return &s.registry }

// Admission returns the overload-protection controller, or nil when
// admission control is disabled.
func (s *Server) Admission() *admission.Controller { return s.admission }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Reload takes a replacement snapshot from Options.Prepared, validates
// it, and atomically publishes it. On any error the previous snapshot
// keeps serving.
func (s *Server) Reload(ctx context.Context) (*Snapshot, error) {
	if s.opts.Prepared == nil {
		return nil, fmt.Errorf("serve: no reload source configured")
	}
	return s.swapWith(ctx, func(ctx context.Context, _ *Snapshot) (*Snapshot, error) {
		return s.opts.Prepared(ctx)
	}, nil)
}

// ReloadDelta pulls a mapping delta from the configured DeltaSource,
// patches the serving snapshot incrementally, and publishes the
// result under the same validate-then-swap discipline as Reload. A
// delta computed against a different base fails with ErrDeltaMismatch
// and leaves the current snapshot serving.
func (s *Server) ReloadDelta(ctx context.Context) (*Snapshot, error) {
	if s.opts.DeltaSource == nil {
		return nil, fmt.Errorf("serve: no delta source configured")
	}
	// The parsed delta doubles as the /v1/watch event payload: a delta
	// reload already knows its exact edit script, so the watch fan-out
	// is free — no ComputeDelta diff pass.
	var applied *mapdiff.Delta
	return s.swapWith(ctx, func(ctx context.Context, old *Snapshot) (*Snapshot, error) {
		d, err := s.opts.DeltaSource(ctx)
		if err != nil {
			return nil, err
		}
		next, err := old.applyDeltaAt(d, s.opts.now())
		if err == nil {
			applied = d
		}
		return next, err
	}, func() *mapdiff.Delta { return applied })
}

// swapWith runs one serialized validate-then-swap sequence: prepare a
// replacement off to the side, publish it only if it validated, and
// record the load duration and outcome. deltaHint, when non-nil and
// returning non-nil, supplies the already-known edit script for the
// /v1/watch fan-out (a delta reload parsed one anyway); otherwise the
// delta is computed here iff someone is watching.
func (s *Server) swapWith(ctx context.Context, prepare func(ctx context.Context, old *Snapshot) (*Snapshot, error), deltaHint func() *mapdiff.Delta) (*Snapshot, error) {
	select {
	case s.reloading <- struct{}{}:
		defer func() { <-s.reloading }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	old := s.snap.Load()
	start := s.opts.now()
	next, err := prepare(ctx, old)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err == nil {
		// The canary gates promotion: the candidate replays a
		// deterministic sample of lookups and searches before it is ever
		// reachable from a serving path. A hash-valid but logically
		// poisoned artifact dies here, not in production traffic.
		if cerr := canaryCheck(next, old, s.opts.Canary); cerr != nil {
			s.metrics.canaryRejects.Add(1)
			err = cerr
		}
	}
	if err != nil {
		// A candidate that was prepared but refused promotion (canary
		// reject, late cancellation) is garbage now.
		if next != nil && next != old {
			collectRetired()
		}
		s.metrics.reloadErr.Add(1)
		s.opts.Logger.Info("reload", "ok", false, "error", err)
		return nil, err
	}
	s.snap.Store(next)
	if s.watch.active() {
		delta := (*mapdiff.Delta)(nil)
		if deltaHint != nil {
			delta = deltaHint()
		}
		if delta == nil {
			delta = mapdiff.Diff(old, next)
		}
		s.watch.publish(next, delta)
	}
	if s.opts.OnSwap != nil {
		s.opts.OnSwap(next)
	}
	s.persistSwap(next)
	d := s.opts.now().Sub(start)
	s.metrics.reloadOK.Add(1)
	s.metrics.lastLoad.Store(&loadRecord{mode: next.LoadMode(), d: d})
	s.opts.Logger.Info("reload", "ok", true, "mode", next.LoadMode(), "hash", next.ContentHash(),
		"health", next.Health().Status, "orgs", next.Stats().Orgs, "asns", next.Stats().ASNs,
		"theta", next.Stats().Theta, "load_us", d.Microseconds())
	// The outgoing snapshot is collected only after every post-swap
	// consumer (watch fan-out, OnSwap, persistence) is done with it.
	if old != next {
		collectRetired()
	}
	return next, nil
}

// collectRetired starts one garbage collection cycle once NewServer's
// first snapshot serves, and once a swap has dropped a snapshot: the
// one it replaced, or a candidate it refused. Go sets each heap goal to
// twice the heap its last cycle marked. A cycle that lands mid-load
// marks the buffers the load still holds, and one that lands
// mid-reload marks the outgoing snapshot, the incoming one and
// everything allocated during the mark; serving traffic then fills the
// heap to that inflated goal, so each reload would peak higher than
// the last. A cycle started once the load or retire is done marks only
// what is still reachable, and the next goal is twice the snapshot now
// serving. The cycle runs on its own goroutine, which ends with it and
// which nothing waits for, so neither NewServer's nor a reload's
// caller pays for it; calls that arrive before a cycle starts share
// it.
func collectRetired() { go runtime.GC() }

// persistSwap records the freshly published snapshot into the
// generation ring and the SnapshotOut artifact. Both are durability,
// not correctness: the swap already happened, so a failed write —
// disk full, torn write, fsync error — is logged and counted, and the
// server keeps serving. It runs with the reload latch held, like
// OnSwap.
func (s *Server) persistSwap(next *Snapshot) {
	if ring := s.opts.Generations; ring != nil {
		if _, err := ring.Record(next, s.opts.now()); err != nil {
			s.metrics.persistErrors.Add(1)
			s.opts.Logger.Info("generation_record", "ok", false, "error", err)
		}
	}
	if s.opts.SnapshotOut != "" {
		if _, err := WriteSnapshotFileFS(s.fs(), s.opts.SnapshotOut, next); err != nil {
			s.metrics.persistErrors.Add(1)
			s.opts.Logger.Info("snapshot_persist", "ok", false, "path", s.opts.SnapshotOut, "error", err)
		} else {
			s.opts.Logger.Info("snapshot_persist", "ok", true, "path", s.opts.SnapshotOut, "hash", next.ContentHash())
		}
	}
}

func (s *Server) fs() vfs.FS { return vfs.Or(s.opts.FS) }

// Rollback swaps the serving snapshot back to the newest verified
// generation whose hash differs from the one serving now. The target
// is fully re-decoded and hash-verified on the way in, passes the same
// canary as any other swap, and is recorded as a new generation —
// lineage shows the rollback rather than silently rewriting history.
// trigger labels the rollback metric ("admin" or "auto").
func (s *Server) Rollback(ctx context.Context, trigger string) (*Snapshot, Generation, error) {
	ring := s.opts.Generations
	if ring == nil {
		return nil, Generation{}, fmt.Errorf("serve: no generation ring configured")
	}
	var gen Generation
	snap, err := s.swapWith(ctx, func(ctx context.Context, old *Snapshot) (*Snapshot, error) {
		next, g, err := ring.PreviousVerified(old.ContentHash())
		if err != nil {
			return nil, err
		}
		gen = g
		return next, nil
	}, nil)
	if err != nil {
		return nil, Generation{}, err
	}
	s.metrics.observeRollback(trigger)
	s.opts.Logger.Info("rollback", "trigger", trigger, "seq", gen.Seq, "hash", gen.Hash)
	return snap, gen, nil
}

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer so http.NewResponseController
// can reach Flush/SetReadDeadline/SetWriteDeadline on the streaming
// endpoints.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Flush forwards to the underlying writer when it supports flushing,
// so streaming handlers can push chunks through the statusWriter.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with admission control, a per-request
// timeout, metrics observation, and structured request logging. A
// timeout of 0 sets no deadline: /v1/bulk and /v1/watch stream, and a
// bulk pass over a million lines or a watch held open for hours is the
// intended behaviour, not a hung request. Those handlers bound
// themselves (body size caps, line caps, hub shutdown) and extend the
// connection's read/write deadlines as they make progress. The
// endpoint's stats are resolved here, once; records are built from
// slog.Attrs, and a request's path is read only if its record is taken.
func (s *Server) instrument(endpoint string, class admission.Class, timeout time.Duration, h http.HandlerFunc) http.HandlerFunc {
	es := s.metrics.endpoint(endpoint)
	log := s.opts.Logger
	return func(w http.ResponseWriter, r *http.Request) {
		if timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		start := s.opts.now()
		sw := &statusWriter{ResponseWriter: w}
		if s.admission != nil {
			release, dec := s.admission.Admit(r.Context(), class, clientKey(r))
			if !dec.Admitted {
				writeRetryableError(sw, dec.Status, dec.RetryAfter,
					"overloaded: request shed (%s), retry later", dec.Reason)
				// A shed counts as a request but not as an error, and its
				// latency stays out of the buckets, so shedding cannot
				// flatter the latency a served request sees.
				es.sheds.Add(1)
				log.LogAttrs(r.Context(), slog.LevelInfo, "shed", slog.String("endpoint", endpoint),
					slog.String("class", class.String()), slog.String("reason", dec.Reason),
					slog.Int("status", sw.status), slog.Int("retry_after_s", int(dec.RetryAfter.Seconds())))
				return
			}
			defer func() { release(s.opts.now().Sub(start)) }()
		}
		if s.opts.testHold != nil {
			s.opts.testHold(endpoint)
		}
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		d := s.opts.now().Sub(start)
		es.observe(sw.status, d)
		if log.Enabled(r.Context(), slog.LevelInfo) {
			log.LogAttrs(r.Context(), slog.LevelInfo, "request", slog.String("endpoint", endpoint),
				slog.String("method", r.Method), slog.String("path", r.URL.RequestURI()),
				slog.Int("status", sw.status), slog.Int64("duration_us", d.Microseconds()))
		}
	}
}

// clientKey identifies the client for per-client rate limiting: the
// X-Api-Key header when present (one key can span hosts), otherwise
// the connection's remote IP with the port stripped (ports churn per
// connection and would defeat the bucket).
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-Api-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "ip:" + host
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeRetryableError is writeError for statuses that invite a retry:
// every 429/503 this server produces carries a Retry-After header
// (whole seconds, the format internal/llm/openai parses back into a
// typed hint on the client side) so well-behaved callers back off
// instead of hammering an overloaded or mid-reload daemon.
func writeRetryableError(w http.ResponseWriter, status int, after time.Duration, format string, args ...any) {
	secs := int(after / time.Second)
	if after%time.Second > 0 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, status, format, args...)
}

// respBufPool recycles /v1/as, /v1/org and /v1/search response
// buffers: the body is rendered from the clusters into a pooled scratch
// slice, so the point-lookup hot path performs no per-request
// allocation.
var respBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

func (s *Server) handleAS(w http.ResponseWriter, r *http.Request) {
	a, err := asnum.Parse(r.PathValue("asn"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid ASN %q", r.PathValue("asn"))
		return
	}
	snap := s.snap.Load()
	bp := respBufPool.Get().(*[]byte)
	body, ok := snap.AppendASBody((*bp)[:0], a)
	if !ok {
		respBufPool.Put(bp)
		writeError(w, http.StatusNotFound, "%s is not in the mapping", a)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	*bp = body[:0]
	respBufPool.Put(bp)
}

func (s *Server) handleOrg(w http.ResponseWriter, r *http.Request) {
	// strconv.Atoi, not Sscanf: "%d" stops at the first non-digit and
	// would silently accept "7abc" as 7.
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid organization id %q", r.PathValue("id"))
		return
	}
	snap := s.snap.Load()
	bp := respBufPool.Get().(*[]byte)
	body, ok := snap.AppendOrgBody((*bp)[:0], id)
	if !ok {
		respBufPool.Put(bp)
		writeError(w, http.StatusNotFound, "organization %d is not in the mapping", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	*bp = body[:0]
	respBufPool.Put(bp)
}

// maxSearchLimit is the server-side ceiling on ?limit=: a single
// search may not ask for an unbounded result set no matter what the
// client requests.
const maxSearchLimit = 500

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("name")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing ?name= query")
		return
	}
	limit := 50
	if ls := r.URL.Query().Get("limit"); ls != "" {
		// strconv.Atoi, not Sscanf: "%d" stops at the first non-digit
		// and would silently accept "50abc" as 50.
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "invalid ?limit=%q", ls)
			return
		}
		limit = n
	}
	if limit > maxSearchLimit {
		limit = maxSearchLimit
	}
	snap := s.snap.Load()
	var (
		hits     []cluster.Cluster
		brownout bool
	)
	if s.admission != nil {
		if capLimit, active := s.admission.BrownoutSearch(); active {
			brownout = true
			if limit > capLimit {
				limit = capLimit
			}
			hits = snap.SearchBrownout(q, limit)
		}
	}
	if !brownout {
		hits = snap.Search(q, limit)
	}
	// Only the (potentially large) result body is worth compressing;
	// the error paths above stay identity-encoded.
	if gz := negotiateGzip(w, r); gz != nil {
		defer finishGzip(w, gz)
		w = &gzipResponseWriter{ResponseWriter: w, gz: gz}
	}
	bp := respBufPool.Get().(*[]byte)
	body := snapbin.AppendSearch((*bp)[:0], q, brownout, hits)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	*bp = body[:0]
	respBufPool.Put(bp)
}

// bucketJSON is the wire form of one histogram bucket.
type bucketJSON struct {
	Size string `json:"size"`
	Orgs int    `json:"orgs"`
}

// lineageJSON is the wire form of the generation ring's state in
// /v1/stats: where the serving content could roll back to.
type lineageJSON struct {
	KeepGenerations int          `json:"keep_generations"`
	Quarantined     int64        `json:"quarantined_total"`
	Generations     []Generation `json:"generations"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	st := snap.Stats()
	hist := make([]bucketJSON, len(st.SizeHistogram))
	for i, b := range st.SizeHistogram {
		hist[i] = bucketJSON{Size: b.Label(), Orgs: b.Orgs}
	}
	var lineage *lineageJSON
	if ring := s.opts.Generations; ring != nil {
		lineage = &lineageJSON{
			KeepGenerations: ring.Keep(),
			Quarantined:     ring.QuarantinedTotal(),
			Generations:     ring.Generations(),
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Orgs          int          `json:"orgs"`
		ASNs          int          `json:"asns"`
		Theta         float64      `json:"theta"`
		MultiASOrgs   int          `json:"multi_as_orgs"`
		LargestOrg    int          `json:"largest_org"`
		SizeHistogram []bucketJSON `json:"size_histogram"`
		Source        string       `json:"source"`
		LoadedAt      time.Time    `json:"loaded_at"`
		AgeSeconds    float64      `json:"age_seconds"`
		Health        Health       `json:"health"`
		LoadMode      string       `json:"load_mode"`
		ContentHash   string       `json:"content_hash"`
		Lineage       *lineageJSON `json:"lineage,omitempty"`
	}{
		Orgs: st.Orgs, ASNs: st.ASNs, Theta: st.Theta,
		MultiASOrgs: st.MultiASOrgs, LargestOrg: st.LargestOrg,
		SizeHistogram: hist, Source: snap.Source(),
		LoadedAt:    snap.LoadedAt().UTC(),
		AgeSeconds:  s.opts.now().Sub(snap.LoadedAt()).Seconds(),
		Health:      snap.Health(),
		LoadMode:    snap.LoadMode(),
		ContentHash: snap.ContentHash(),
		Lineage:     lineage,
	})
}

// handleReload serves POST /admin/reload. ?mode=delta patches the
// serving snapshot from the configured DeltaSource; the default (or
// ?mode=full) replaces it from the configured snapshot source. The
// response carries the published snapshot's content hash and load
// mode so a fleet orchestrator can verify cross-replica consistency
// from the reload call itself.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	// Reload takes no body today, but cap anything a client posts so
	// every body-reading path is bounded.
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var snap *Snapshot
	var err error
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "full":
		if s.opts.Prepared == nil {
			writeError(w, http.StatusNotImplemented, "no reload source configured")
			return
		}
		snap, err = s.Reload(r.Context())
	case "delta":
		if s.opts.DeltaSource == nil {
			writeError(w, http.StatusNotImplemented, "no delta source configured")
			return
		}
		snap, err = s.ReloadDelta(r.Context())
	default:
		writeError(w, http.StatusBadRequest, "unknown reload mode %q", mode)
		return
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			writeRetryableError(w, http.StatusServiceUnavailable, time.Second,
				"reload failed: %v", err)
			return
		}
		status := http.StatusInternalServerError
		if errors.Is(err, ErrDeltaMismatch) {
			// The delta's base disagrees with the serving snapshot —
			// the client should retry with a full artifact, not the
			// same delta.
			status = http.StatusConflict
		}
		if errors.Is(err, ErrCanaryRejected) {
			// The artifact decoded but failed live invariants; the same
			// bytes will fail again — the caller needs a new artifact.
			status = http.StatusUnprocessableEntity
		}
		writeError(w, status, "reload failed: %v", err)
		return
	}
	st := snap.Stats()
	writeJSON(w, http.StatusOK, struct {
		Status      string  `json:"status"`
		Orgs        int     `json:"orgs"`
		ASNs        int     `json:"asns"`
		Theta       float64 `json:"theta"`
		LoadMode    string  `json:"load_mode"`
		ContentHash string  `json:"content_hash"`
	}{
		Status: "ok", Orgs: st.Orgs, ASNs: st.ASNs, Theta: st.Theta,
		LoadMode: snap.LoadMode(), ContentHash: snap.ContentHash(),
	})
}

// handleRollback serves POST /admin/rollback: swap the serving
// snapshot back to the newest verified generation. 501 without a
// generation ring, 409 when no other verified generation exists, 422
// when the rollback target itself fails the canary.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if s.opts.Generations == nil {
		writeError(w, http.StatusNotImplemented, "no generation ring configured (-keep-generations)")
		return
	}
	snap, gen, err := s.Rollback(r.Context(), "admin")
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrNoVerifiedGeneration):
			status = http.StatusConflict
		case errors.Is(err, ErrCanaryRejected):
			status = http.StatusUnprocessableEntity
		}
		writeError(w, status, "rollback failed: %v", err)
		return
	}
	st := snap.Stats()
	writeJSON(w, http.StatusOK, struct {
		Status      string  `json:"status"`
		Seq         uint64  `json:"generation"`
		ContentHash string  `json:"content_hash"`
		Orgs        int     `json:"orgs"`
		ASNs        int     `json:"asns"`
		Theta       float64 `json:"theta"`
	}{
		Status: "rolled-back", Seq: gen.Seq, ContentHash: snap.ContentHash(),
		Orgs: st.Orgs, ASNs: st.ASNs, Theta: st.Theta,
	})
}

// handleHealthz reports liveness plus the snapshot's provenance
// health. A degraded snapshot still answers 200 — the daemon is up and
// serving; "degraded" tells orchestrators the mapping behind it was
// built under faults, which is a quality signal, not an outage.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	h := snap.Health()
	writeJSON(w, http.StatusOK, struct {
		Status      string  `json:"status"`
		AgeSeconds  float64 `json:"snapshot_age_seconds"`
		Quarantined int     `json:"quarantined,omitempty"`
		Detail      string  `json:"detail,omitempty"`
	}{
		Status:      h.Status,
		AgeSeconds:  s.opts.now().Sub(snap.LoadedAt()).Seconds(),
		Quarantined: h.Quarantined,
		Detail:      h.Detail,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = s.registry.WriteTo(w) // a failed write means the scraper left
}

// Serve listens on addr and serves snap until ctx is cancelled, then
// shuts down gracefully (in-flight requests get up to the request
// timeout to finish). It is the one-call entry point the borgesd daemon
// and the facade use.
func Serve(ctx context.Context, addr string, snap *Snapshot, opts Options) error {
	srv, err := NewServer(snap, opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return srv.ServeListener(ctx, ln)
}

// ServeListener serves on an existing listener until ctx is cancelled.
func (s *Server) ServeListener(ctx context.Context, ln net.Listener) error {
	return s.ServeHandler(ctx, ln, s.Handler())
}

// ServeHandler is ServeListener with a caller-supplied handler —
// typically the server's own Handler wrapped with extra routes (the
// fleet distributor mounts /fleet/* this way). Shutdown discipline is
// identical: the watch hub closes first so SSE streams end, then
// in-flight requests drain.
func (s *Server) ServeHandler(ctx context.Context, ln net.Listener, handler http.Handler) error {
	// No BaseContext wiring ctx into requests: cancellation must stop
	// accepting, not kill in-flight requests — Shutdown drains them.
	// The read/write timeouts bound a whole connection's I/O; the
	// streaming endpoints (/v1/bulk, /v1/watch) extend their deadlines
	// per chunk via http.ResponseController, so a legitimate long
	// stream outlives them while a stalled peer still gets cut off.
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       s.opts.RequestTimeout,
		WriteTimeout:      2 * s.opts.RequestTimeout,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if s.opts.ScrubInterval > 0 {
		// The scrubber stops with the server, which returns only once a
		// cycle in progress has finished. ScrubOnce remains callable.
		scrubCtx, stopScrub := context.WithCancel(ctx)
		scrubbed := make(chan struct{})
		go func() { defer close(scrubbed); s.scrubLoop(scrubCtx) }()
		defer func() { stopScrub(); <-scrubbed }()
	}
	s.opts.Logger.Info("listening", "addr", ln.Addr().String())
	select {
	case <-ctx.Done():
		// Close the watch hub first: Shutdown waits for in-flight
		// requests, and a watch subscriber is in-flight until its event
		// channel closes. Closing the hub ends every stream cleanly
		// (after delivering anything already queued), so the drain
		// below terminates.
		s.watch.close()
		shutCtx, cancel := context.WithTimeout(context.Background(), s.opts.RequestTimeout)
		defer cancel()
		err := hs.Shutdown(shutCtx)
		<-errc // always http.ErrServerClosed after Shutdown
		s.opts.Logger.Info("shutdown", "ok", err == nil)
		return err
	case err := <-errc:
		return err
	}
}
