package serve

import (
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"github.com/nu-aqualab/borges/internal/obs"
)

// An endpoint keeps latencyBuckets request-latency buckets: one per
// bound in latencyBounds, two per power of two of microseconds, 2^k and
// 1.5·2^k µs (1, 1.5, 2, 3, 4, 6 … µs) up to 2^26 µs (67.1 s), and one
// above them all. No bucket is more than 1.5 times as wide as the one
// below it.
const latencyBuckets = 54

var latencyBounds = func() (b [latencyBuckets - 1]time.Duration) {
	for i := range b {
		b[i] = time.Microsecond << (i / 2) * time.Duration(2+i%2) / 2
	}
	return b
}()

// endpointStats is one endpoint's request accounting. instrument
// resolves it once, when the route is registered, and a request then
// touches only atomics. Requests are the buckets' total plus sheds.
type endpointStats struct {
	name    string
	buckets [latencyBuckets]atomic.Uint64 // served requests, by latency
	nanos   atomic.Int64                  // their summed latency
	errors  atomic.Int64                  // responses with status >= 500, excluding sheds
	sheds   atomic.Int64                  // admission refusals (429/503 with Retry-After)
}

// observe records one served request; a negative latency counts as 0.
func (es *endpointStats) observe(status int, d time.Duration) {
	d = max(d, 0)
	i, _ := slices.BinarySearch(latencyBounds[:], d)
	es.buckets[i].Add(1)
	es.nanos.Add(int64(d))
	if status >= 500 {
		es.errors.Add(1)
	}
}

// served returns how many requests the endpoint has served: its
// buckets' total.
func (es *endpointStats) served() (n uint64) {
	for i := range es.buckets {
		n += es.buckets[i].Load()
	}
	return n
}

// seen reports whether the endpoint has served or shed a request; an
// endpoint that has not prints no samples.
func (es *endpointStats) seen() bool { return es.sheds.Load() > 0 || es.served() > 0 }

// loadRecord is the most recent successful snapshot load: its mode
// (LoadModeFull, LoadModeBinary, LoadModeDelta) and duration,
// published together.
type loadRecord struct {
	mode string
	d    time.Duration
}

// serverMetrics is the server's own accounting. Every counter is an
// atomic, and endpoints is fixed once NewServer returns, so recording
// takes no lock and a scrape blocks no request.
type serverMetrics struct {
	endpoints []*endpointStats // sorted by name
	reloadOK  atomic.Int64
	reloadErr atomic.Int64
	lastLoad  atomic.Pointer[loadRecord]
	// Bulk streaming counters: input lines processed, and lines
	// answered with a per-line error object. The bulk endpoint's
	// latency buckets count its streams and time them.
	bulkLines    atomic.Int64
	bulkErrLines atomic.Int64
	// Storage-integrity counters: canary-refused swaps, rollbacks by
	// trigger, failed best-effort snapshot persists, and the background
	// scrubber's accounting.
	canaryRejects  atomic.Int64
	rollbacksAdmin atomic.Int64
	rollbacksAuto  atomic.Int64
	persistErrors  atomic.Int64
	scrubCycles    atomic.Int64
	scrubChecked   atomic.Int64
	scrubCorrupt   atomic.Int64
	scrubRepaired  atomic.Int64
	probeFailures  atomic.Int64
}

// endpoint returns the named endpoint's stats, adding them in name
// order on first use. NewServer adds every endpoint before it serves a
// request; after that, endpoint only finds them.
func (m *serverMetrics) endpoint(name string) *endpointStats {
	i, found := slices.BinarySearchFunc(m.endpoints, name, func(es *endpointStats, name string) int {
		return strings.Compare(es.name, name)
	})
	if !found {
		m.endpoints = slices.Insert(m.endpoints, i, &endpointStats{name: name})
	}
	return m.endpoints[i]
}

// observeRollback counts one completed rollback by its trigger.
func (m *serverMetrics) observeRollback(trigger string) {
	switch trigger {
	case "admin":
		m.rollbacksAdmin.Add(1)
	case "auto":
		m.rollbacksAuto.Add(1)
	}
}

// registerMetrics declares the server's request, reload, storage and
// snapshot families on its registry. The snapshot gauges read the
// serving snapshot at scrape time, so they are always current.
func (s *Server) registerMetrics() {
	m, reg := &s.metrics, &s.registry
	perEndpoint := func(name, help string, value func(*endpointStats) float64) {
		reg.Add(name, obs.Counter, help, func(emit obs.Emit) {
			for _, es := range m.endpoints {
				if es.seen() {
					emit(value(es), "endpoint", es.name)
				}
			}
		})
	}
	perEndpoint("borgesd_requests_total", "Requests served, by endpoint.",
		func(es *endpointStats) float64 { return float64(es.served()) + float64(es.sheds.Load()) })
	perEndpoint("borgesd_errors_total", "Responses with status >= 500, by endpoint (admission sheds excluded).",
		func(es *endpointStats) float64 { return float64(es.errors.Load()) })
	perEndpoint("borgesd_sheds_total", "Requests refused by admission control (429/503 with Retry-After), by endpoint.",
		func(es *endpointStats) float64 { return float64(es.sheds.Load()) })
	bounds := make([]float64, len(latencyBounds))
	for i, d := range latencyBounds {
		bounds[i] = d.Seconds()
	}
	reg.Histogram("borgesd_request_latency_seconds", "Latency of served requests (admission sheds excluded), by endpoint.", bounds, func(emit obs.EmitHistogram) {
		// A scrape that races a request may see its bucket before its
		// latency reaches the sum.
		var counts [latencyBuckets]uint64
		for _, es := range m.endpoints {
			if es.seen() {
				for i := range counts {
					counts[i] = es.buckets[i].Load()
				}
				emit(counts[:], time.Duration(es.nanos.Load()).Seconds(), "endpoint", es.name)
			}
		}
	})
	bulk := m.endpoint("bulk")
	reg.Counter("borgesd_bulk_requests_total", "Completed /v1/bulk streams.", func() float64 { return float64(bulk.served()) })
	reg.Counter("borgesd_bulk_lines_total", "Input lines processed by /v1/bulk.", obs.Int64(&m.bulkLines))
	reg.Counter("borgesd_bulk_error_lines_total", "Bulk lines answered with a per-line error object (malformed or unmapped).", obs.Int64(&m.bulkErrLines))
	reg.Gauge("borgesd_bulk_lines_per_second", "Lifetime sustained bulk throughput (lines / total streaming time).", func() float64 {
		if d := time.Duration(bulk.nanos.Load()); d > 0 {
			return float64(m.bulkLines.Load()) / d.Seconds()
		}
		return 0
	})
	reg.Counter("borgesd_bulk_sheds_total", "Bulk requests refused by admission control.", obs.Int64(&bulk.sheds))
	reg.Add("borgesd_reloads_total", obs.Counter, "Snapshot reload attempts, by result.", func(emit obs.Emit) {
		emit(float64(m.reloadOK.Load()), "result", "success")
		emit(float64(m.reloadErr.Load()), "result", "failure")
	})
	reg.Add("borgesd_snapshot_load_seconds", obs.Gauge, "Duration of the most recent snapshot load, by mode.", func(emit obs.Emit) {
		if l := m.lastLoad.Load(); l != nil {
			emit(l.d.Seconds(), "mode", l.mode)
		}
	})
	reg.Counter("borgesd_canary_rejects_total", "Snapshot swaps refused by the pre-promotion canary.", obs.Int64(&m.canaryRejects))
	reg.Add("borgesd_rollbacks_total", obs.Counter, "Completed rollbacks to a previous verified generation, by trigger.", func(emit obs.Emit) {
		emit(float64(m.rollbacksAdmin.Load()), "trigger", "admin")
		emit(float64(m.rollbacksAuto.Load()), "trigger", "auto")
	})
	reg.Counter("borgesd_snapshot_persist_errors_total", "Failed best-effort snapshot persists (generation ring or -snapshot-out) after a successful swap.", obs.Int64(&m.persistErrors))
	reg.Counter("borgesd_scrub_cycles_total", "Completed background integrity scrub cycles.", obs.Int64(&m.scrubCycles))
	reg.Counter("borgesd_scrub_checked_total", "Artifacts integrity-checked by the scrubber.", obs.Int64(&m.scrubChecked))
	reg.Counter("borgesd_scrub_corrupt_total", "Corrupt artifacts found and quarantined by the scrubber.", obs.Int64(&m.scrubCorrupt))
	reg.Counter("borgesd_scrub_repaired_total", "Corrupt artifacts rewritten from an authoritative copy by the scrubber.", obs.Int64(&m.scrubRepaired))
	reg.Counter("borgesd_probe_failures_total", "Failed post-scrub health probes of the serving snapshot.", obs.Int64(&m.probeFailures))

	reg.Gauge("borgesd_snapshot_age_seconds", "Seconds since the serving snapshot was built.", func() float64 {
		return s.opts.now().Sub(s.snap.Load().LoadedAt()).Seconds()
	})
	reg.Gauge("borgesd_snapshot_orgs", "Organizations in the serving snapshot.", func() float64 {
		return float64(s.snap.Load().Stats().Orgs)
	})
	reg.Gauge("borgesd_snapshot_asns", "Networks covered by the serving snapshot.", func() float64 {
		return float64(s.snap.Load().Stats().ASNs)
	})
	reg.Gauge("borgesd_snapshot_theta", "Normalised Organization Factor of the serving snapshot.", func() float64 {
		return s.snap.Load().Stats().Theta
	})
	reg.Gauge("borgesd_snapshot_degraded", "Whether the run that produced the serving snapshot quarantined work (1) or completed cleanly (0).", func() float64 {
		if s.snap.Load().Health().Status != HealthOK {
			return 1
		}
		return 0
	})
	reg.Gauge("borgesd_snapshot_quarantined", "Items quarantined by the run that produced the serving snapshot.", func() float64 {
		return float64(s.snap.Load().Health().Quarantined)
	})
	reg.Add("borgesd_snapshot_info", obs.Gauge, "Serving snapshot identity: content hash and load mode (value is always 1).", func(emit obs.Emit) {
		snap := s.snap.Load()
		emit(1, "hash", snap.ContentHash(), "mode", snap.LoadMode())
	})
}
