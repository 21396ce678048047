package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/nu-aqualab/borges/internal/admission"
	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cache"
	"github.com/nu-aqualab/borges/internal/classify"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/crawler"
	"github.com/nu-aqualab/borges/internal/favicon"
	"github.com/nu-aqualab/borges/internal/llm"
	"github.com/nu-aqualab/borges/internal/mapdiff"
	"github.com/nu-aqualab/borges/internal/ner"
	"github.com/nu-aqualab/borges/internal/resilience"
	"github.com/nu-aqualab/borges/internal/serve"
	"github.com/nu-aqualab/borges/internal/synth"
	"github.com/nu-aqualab/borges/internal/urlmatch"
)

// runLedger is the traced run. On the workload's corpus and backends
// it times every layer the end-to-end metrics pass through: core.Run's
// seams (backend calls and cache counters) on a cold build and a warm
// rebuild, a stage-by-stage replay of core.Run whose mapping must hash
// like core.Run's, the serving ladder on the build's artifact —
// Snapshot method, handler, handler with admission, in-process HTTP,
// borgesd — so adjacent rungs attribute a lookup's cost layer by layer,
// and reloads in process. It also reports the metrics that BENCHMARK.json
// keeps per-layer because they cannot hold an end-to-end bound (build_s,
// point_p99_us, reload_delta_ms, …): from its untraced builds, and from
// short runs of serve-point's ladder and serve-mixed's traffic against
// a borgesd on the same artifact. Every workload's traced run thus
// reports every per-layer metric, for its own corpus and backends.
func runLedger(ctx context.Context, e *env, r *result) error {
	tr := newTracer()
	defer func() { r.spans = tr.snapshot() }()
	sp := tr.start("synth.generate", spanRef{})
	ds, d, err := generate(e.seed, e.scaleOf())
	sp.end()
	if err != nil {
		return err
	}
	r.set("synth.generate_s", "s", "lower", d.Seconds())
	be := e.wl.backend
	artA := filepath.Join(e.work, "a.snapbin")
	// Each build starts without the previous one's garbage, as in the
	// end-to-end run.
	buildOn := func(c *cache.Cache, tr *tracer) (*built, error) {
		runtime.GC()
		return build(ctx, ds, be, nil, c, artA, tr)
	}

	// Tracing overhead: untraced and traced cold builds, alternated.
	var plain, traced []float64
	var last *built
	var plainCache, lastCache *cache.Cache
	for i := 0; i < 2; i++ {
		if plainCache, err = cache.New(cache.Options{}); err != nil {
			return err
		}
		b, err := buildOn(plainCache, nil)
		if err != nil {
			return err
		}
		plain = append(plain, b.dur.Seconds())
		if lastCache, err = cache.New(cache.Options{}); err != nil {
			return err
		}
		if last, err = buildOn(lastCache, tr); err != nil {
			return err
		}
		traced = append(traced, last.dur.Seconds())
		r.check(sameHash("traced build", last.hash, b.hash))
	}
	r.Attempted += 4
	r.check(checkPinned(e.seed, e.scaleOf(), last.mapping))
	r.timing("build_s", "s", plain)
	r.set("trace.overhead_pct", "%", "lower", (median(traced)/median(plain)-1)*100)
	spans := tr.snapshot()
	run := spanByID(spans, last.run.id)
	r.set("core.run_s", "s", "lower", float64(run.End-run.Start)/1e9)
	r.set("core.self_s", "s", "lower", float64(run.End-run.Start-covered(run.Start, run.End, childrenOf(spans, run.ID)))/1e9)
	r.set("llm.calls", "count", "lower", float64(last.llm.calls.Load()))
	r.set("llm.busy_s", "s", "lower", busy(spans, run, "llm.complete").Seconds())
	r.set("crawler.transport_reqs", "count", "lower", float64(last.web.reqs.Load()))

	// Warm rebuilds: untraced on the last untraced build's cache, traced
	// on the last traced build's.
	rb, err := buildOn(plainCache, nil)
	r.Attempted++
	if err != nil {
		return err
	}
	r.check(sameHash("rebuild", rb.hash, last.hash))
	r.timing("rebuild_s", "s", []float64{rb.dur.Seconds()})
	rb, err = buildOn(lastCache, tr)
	r.Attempted++
	if err != nil {
		return err
	}
	r.check(sameHash("traced rebuild", rb.hash, last.hash))
	r.set("cache.hits", "count", "higher", float64(rb.cache.Hits))
	r.set("cache.misses", "count", "lower", float64(rb.cache.Misses))
	r.set("cache.hit_ratio", "ratio", "higher", hitRatio(rb.cache))
	r.set("cache.evictions", "count", "lower", float64(rb.cache.Evictions))
	r.set("cache.dedups", "count", "lower", float64(rb.cache.Dedups))
	r.set("crawler.rebuild_transport_reqs", "count", "lower", float64(rb.web.reqs.Load()))
	r.set("llm.rebuild_calls", "count", "lower", float64(rb.llm.calls.Load()))

	hash, err := replay(ctx, ds, be, tr, r, artA)
	r.Attempted++
	if err != nil {
		return err
	}
	r.check(sameHash("stage replay", hash, last.hash))

	s, err := serveInputs(ctx, e, ds, last, true)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	picker := newZipfPicker(rng, 1.1, s.asns)
	hot := make([]asnum.ASN, 4096)
	for i := range hot {
		hot[i] = picker.next()
	}
	dur := min(max(e.seconds/40, 200*time.Millisecond), time.Second)
	if err := serveLadder(ctx, tr, r, s, rng, hot, dur); err != nil {
		return err
	}
	if err := reloadRungs(ctx, tr, r, s); err != nil {
		return err
	}
	if err := daemonRuns(ctx, e, tr, r, s, hot, dur); err != nil {
		return err
	}
	printSelfTimes(e, tr.snapshot())
	return nil
}

func spanByID(spans []span, id int64) span {
	for _, s := range spans {
		if s.ID == id {
			return s
		}
	}
	return span{}
}

func childrenOf(spans []span, id int64) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

func printSelfTimes(e *env, spans []span) {
	st := selfTimes(spans)
	e.logf("per-layer self time (span duration minus the time its child spans cover):")
	for _, name := range sortedKeys(st) {
		lt := st[name]
		fmt.Fprintf(e.log, "  %-28s %8d spans %12.6f s total %12.6f s self\n", name, lt.Count, lt.TotalS, lt.SelfS)
	}
}

// namer is core.Run's cluster namer: the first WHOIS organization name
// among the members, else the first PeeringDB one.
func namer(ds *synth.Dataset) cluster.Namer {
	return func(members []asnum.ASN) string {
		for _, a := range members {
			if org := ds.WHOIS.OrgOf(a); org != nil && org.Name != "" {
				return org.Name
			}
		}
		for _, a := range members {
			if org := ds.PDB.OrgOf(a); org != nil && org.Name != "" {
				return org.Name
			}
		}
		return ""
	}
}

// replay runs core.Run's stages one at a time, in its order, with the
// same defaults, on a fresh cache, and writes the artifact to path. It
// returns the artifact's content hash.
func replay(ctx context.Context, ds *synth.Dataset, be backend, tr *tracer, r *result, path string) (string, error) {
	c, err := cache.New(cache.Options{})
	if err != nil {
		return "", err
	}
	web, model := be.seams(ds, tr)
	root := tr.start("replay", spanRef{})
	defer root.end()
	stage := func(name string) spanRef {
		sp := tr.start(name, root)
		web.parent, model.parent = sp, sp
		return sp
	}
	// core.Run's resilience wiring for MaxRetries 2, BreakerThreshold 5:
	// one breaker registry for both chains, the provider's retries
	// inside its cache.
	breakers := &resilience.BreakerSet{Threshold: 5}
	policy := func(retryable func(error) bool) *resilience.Policy {
		return &resilience.Policy{MaxAttempts: 3, Retryable: retryable}
	}
	var provider llm.Provider = &llm.Resilient{Inner: model,
		Exec: &resilience.Executor{Policy: policy(llm.Retryable), Breakers: breakers}}
	provider = &cache.Provider{Inner: provider, Cache: c}

	sp := stage("cluster.add")
	b := cluster.NewBuilder()
	b.AddUniverse(ds.WHOIS.ASNs()...)
	setsW, setsP := ds.WHOIS.SiblingSets(), ds.PDB.SiblingSets()
	b.AddAll(setsW)
	b.AddAll(setsP)
	add := sp.end()

	sp = stage("ner.extract")
	records := ner.RecordsFromPDB(ds.PDB)
	setsNA := ner.SiblingSets((&ner.Extractor{Provider: provider}).ExtractAll(ctx, records))
	r.set("ner.extract_s", "s", "lower", sp.end().Seconds())
	r.set("ner.records", "count", "lower", float64(len(records)))

	sp = stage("crawler.crawl")
	cr := crawler.New(crawler.Options{Transport: web, Cache: c, Retry: policy(nil), Breakers: breakers})
	var tasks []crawler.Task
	unique := make(map[string]bool)
	for _, n := range ds.PDB.NetsWithWebsite() {
		canon, err := urlmatch.Canonicalize(n.Website)
		if err != nil {
			continue
		}
		tasks = append(tasks, crawler.Task{ASN: n.ASN, URL: n.Website})
		unique[canon] = true
	}
	reqs := web.reqs.Load()
	crawls := cr.CrawlAll(ctx, tasks)
	r.set("crawler.crawl_s", "s", "lower", sp.end().Seconds())
	reqs = web.reqs.Load() - reqs
	r.set("crawler.tasks", "count", "lower", float64(len(tasks)))
	r.set("crawler.reqs_per_unique_url", "ratio", "lower", float64(reqs)/float64(max(len(unique), 1)))
	r.set("crawler.retries", "count", "lower", float64(cr.ExecStats().Retries))

	sp = stage("urlmatch.group")
	setsRR := urlmatch.NewMatcher(nil).SiblingSets(crawler.FinalURLs(crawls))
	r.set("urlmatch.group_s", "s", "lower", sp.end().Seconds())

	sp = stage("favicon.index")
	idx := favicon.NewIndex()
	for _, cw := range crawls {
		if cw.OK {
			idx.Add(cw.FinalURL, cw.FaviconHash, cw.Task.ASN)
		}
	}
	groups := idx.SharedGroups()
	r.set("favicon.index_s", "s", "lower", sp.end().Seconds())

	sp = stage("classify.classify")
	calls := model.calls.Load()
	outcomes := (&classify.Classifier{Provider: provider, IconSource: cr.IconBytes}).ClassifyAll(ctx, groups)
	setsF := classify.SiblingSets(outcomes)
	r.set("classify.classify_s", "s", "lower", sp.end().Seconds())
	r.set("classify.groups", "count", "lower", float64(len(groups)))
	r.set("classify.llm_calls", "count", "lower", float64(model.calls.Load()-calls))
	if err := ctx.Err(); err != nil {
		return "", err
	}

	sp = stage("cluster.add")
	b.AddAll(setsNA)
	b.AddAll(setsRR)
	b.AddAll(setsF)
	add += sp.end()
	r.set("cluster.add_s", "s", "lower", add.Seconds())
	r.set("cluster.sets", "count", "lower", float64(len(setsW)+len(setsP)+len(setsNA)+len(setsRR)+len(setsF)))

	sp = stage("cluster.consolidate")
	m, err := b.BuildShardedChecked(namer(ds), 0)
	r.set("cluster.consolidate_s", "s", "lower", sp.end().Seconds())
	if err != nil {
		return "", err
	}

	sp = stage("serve.snapshot_build")
	snap, err := serve.NewSnapshot(m, "pipeline")
	r.set("serve.snapshot_build_s", "s", "lower", sp.end().Seconds())
	if err != nil {
		return "", err
	}
	sp = stage("snapbin.write")
	hash, err := serve.WriteSnapshotFile(path, snap)
	r.set("snapbin.write_s", "s", "lower", sp.end().Seconds())
	if err != nil {
		return "", err
	}
	st, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	r.set("snapbin.bytes", "bytes", "lower", float64(st.Size()))

	// Mapped snapshots are unmapped only by a serving Server retiring
	// them, so the three mapped loads stay mapped until the process
	// exits; the file is page-cache resident anyway.
	for _, l := range []struct {
		name string
		load func(string) (*serve.Snapshot, error)
	}{{"snapbin.load", serve.LoadSnapshotFile}, {"snapbin.load_mapped", serve.LoadSnapshotFileMapped}} {
		var ms []float64
		for i := 0; i < 3; i++ {
			sp := tr.start(l.name, root)
			s, err := l.load(path)
			ms = append(ms, float64(sp.end())/1e6)
			if err == nil {
				err = sameHash(l.name, s.ContentHash(), hash)
			}
			r.check(err)
		}
		r.set(l.name+"_ms", "ms", "lower", median(ms))
	}
	return hash, nil
}

// rung times one ladder rung: after one untimed batch, f runs in
// batches of batch calls for about dur, and the rung's value is the
// median batch's time per call. The rung is one span.
func rung(tr *tracer, name string, dur time.Duration, batch int, f func(i int) error) (float64, error) {
	sp := tr.start(name, spanRef{})
	defer sp.end()
	var perCall []float64
	i := 0
	for start := time.Now(); len(perCall) < 4 || time.Since(start) < dur; {
		t := time.Now()
		for j := 0; j < batch; j++ {
			if err := f(i); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			i++
		}
		perCall = append(perCall, float64(time.Since(t))/float64(batch))
	}
	return median(perCall[1:]), nil
}

// admissionDefaults are borgesd's admission flags with -rate 0.
var admissionDefaults = admission.Config{MaxInflight: 256, TargetLatency: 150 * time.Millisecond, Burst: 100, ShedSearchFirst: true}

// serveLadder climbs the in-process rungs of the serving ladder on A's
// artifact, loaded as borgesd loads it, for hot point lookups and for
// searches and bulk streams drawn from rng; each rung runs for dur.
func serveLadder(ctx context.Context, tr *tracer, r *result, s *served, rng *rand.Rand, hot []asnum.ASN, dur time.Duration) error {
	snap, err := serve.LoadSnapshotFile(s.artA)
	if err != nil {
		return err
	}
	queries := make([]string, 256)
	for i := range queries {
		queries[i] = s.tokens[rng.Intn(len(s.tokens))]
	}
	searchPath := func(i int) string { return "/v1/search?name=" + url.QueryEscape(queries[i%len(queries)]) }
	var bulk []byte
	for i := 0; i < bulkLines; i++ {
		bulk = strconv.AppendUint(bulk, uint64(s.asns[rng.Intn(len(s.asns))]), 10)
		bulk = append(bulk, '\n')
	}
	set := func(name, unit string, v float64, err error) error {
		if err == nil {
			r.set(name, unit, "lower", v)
		}
		return err
	}

	plainSrv, err := serve.NewServer(snap, serve.Options{})
	if err != nil {
		return err
	}
	adm := admissionDefaults
	admSrv, err := serve.NewServer(snap, serve.Options{Admission: &adm})
	if err != nil {
		return err
	}
	asReq := func(i int) *http.Request { return httptest.NewRequest(http.MethodGet, asPath(hot[i%len(hot)]), nil) }
	viaHandler := func(h http.Handler, req func(int) *http.Request) func(int) error {
		return func(i int) error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req(i))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("status %d", rec.Code)
			}
			return nil
		}
	}
	var buf []byte
	v, err := rung(tr, "serve.append_as_body", dur, 1024, func(i int) error {
		var ok bool
		if buf, ok = snap.AppendASBody(buf[:0], hot[i%len(hot)]); !ok {
			return fmt.Errorf("%s unmapped", hot[i%len(hot)])
		}
		return nil
	})
	if err := set("serve.append_as_body_ns", "ns", v, err); err != nil {
		return err
	}
	v, err = rung(tr, "serve.handler_as", dur, 256, viaHandler(plainSrv.Handler(), asReq))
	if err := set("serve.handler_as_ns", "ns", v, err); err != nil {
		return err
	}
	v, err = rung(tr, "serve.handler_as_admitted", dur, 256, viaHandler(admSrv.Handler(), asReq))
	if err := set("serve.handler_as_admitted_ns", "ns", v, err); err != nil {
		return err
	}
	v, err = rung(tr, "serve.search", dur, 64, func(i int) error {
		if len(snap.Search(queries[i%len(queries)], 50)) == 0 {
			return fmt.Errorf("no match for %q", queries[i%len(queries)])
		}
		return nil
	})
	if err := set("serve.search_ns", "ns", v, err); err != nil {
		return err
	}
	searchReq := func(i int) *http.Request {
		return httptest.NewRequest(http.MethodGet, searchPath(i), nil)
	}
	v, err = rung(tr, "serve.handler_search", dur, 64, viaHandler(plainSrv.Handler(), searchReq))
	if err := set("serve.handler_search_ns", "ns", v, err); err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSuffix(bulk, []byte{'\n'}), []byte{'\n'})
	v, err = rung(tr, "serve.bulk_line", dur, 4096, func(i int) error {
		a, err := asnum.Parse(string(lines[i%len(lines)]))
		if err == nil {
			buf, _ = snap.AppendASBody(buf[:0], a)
		}
		return err
	})
	if err := set("serve.bulk_line_ns", "ns", v, err); err != nil {
		return err
	}
	bulkReq := func(int) *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/bulk", bytes.NewReader(bulk))
	}
	v, err = rung(tr, "serve.handler_bulk", dur, 1, viaHandler(plainSrv.Handler(), bulkReq))
	if err := set("serve.handler_bulk_line_ns", "ns", v/bulkLines, err); err != nil {
		return err
	}

	// In-process HTTP: the admitted server on a loopback listener, one
	// keep-alive connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srvCtx, stopSrv := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- admSrv.ServeListener(srvCtx, ln) }()
	base := "http://" + ln.Addr().String()
	client := laneClient()
	httpErr := func() error {
		v, err := rung(tr, "http.as_rtt", dur, 16, getRung(client, base, func(i int) string { return asPath(hot[i%len(hot)]) }))
		if err := set("http.as_rtt_us", "us", v/1e3, err); err != nil {
			return err
		}
		v, err = rung(tr, "http.search_rtt", dur, 16, getRung(client, base, searchPath))
		if err := set("http.search_rtt_us", "us", v/1e3, err); err != nil {
			return err
		}
		v, err = rung(tr, "http.bulk", dur, 1, func(int) error {
			resp, err := client.Post(base+"/v1/bulk", "application/x-ndjson", bytes.NewReader(bulk))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		})
		return set("http.bulk_line_ns", "ns", v/bulkLines, err)
	}()
	stopSrv()
	if err := <-served; err != nil && httpErr == nil {
		httpErr = err
	}
	return httpErr
}

func asPath(a asnum.ASN) string { return "/v1/as/" + strconv.FormatUint(uint64(a), 10) }

// getRung is a closed-loop GET of path(i) on client.
func getRung(client *http.Client, base string, path func(int) string) func(int) error {
	return func(i int) error {
		resp, err := client.Get(base + path(i))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path(i), resp.StatusCode)
		}
		return nil
	}
}

// daemonRuns starts borgesd on A with B's delta as -delta-in three
// times (cold_start_ms), climbs the ladder's top rung on the last start,
// then runs a short serve-point ladder and short serve-mixed traffic
// against it.
func daemonRuns(ctx context.Context, e *env, tr *tracer, r *result, s *served, hot []asnum.ASN, dur time.Duration) error {
	sp := tr.start("borgesd.cold_starts", spanRef{})
	d, err := startCold(e, r, 3, asPath(hot[0]), "-snapshot-in", s.artA, "-delta-in", s.live, "-q", "-rate", "0")
	sp.end()
	if err != nil {
		return err
	}
	defer d.stop()
	if err := borgesdRung(tr, r, d, hot, dur); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	l := planLadder(rng, s.asns, e.seconds/40, e.seconds/20)
	m := planMixed(rng, s, max(e.seconds/5, time.Second))
	exp := s.keepBodies(append(l.sampled(), m.sampled()...))
	sp = tr.start("borgesd.ladder", spanRef{})
	_, err = runLadder(ctx, e, r, d, l, exp)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.start("borgesd.mixed", spanRef{})
	_, err = runMixed(ctx, e, r, d, s, m, exp)
	sp.end()
	if err != nil {
		return err
	}
	return d.stop()
}

// borgesdRung is the ladder's top rung: GET /v1/as against the borgesd
// subprocess d, with its admission and GC counters scraped around it.
func borgesdRung(tr *tracer, r *result, d *daemon, hot []asnum.ASN, dur time.Duration) error {
	client := laneClient()
	names := []string{"borgesd_admission_sheds_total", "borgesd_admission_queue_timeouts_total", "borgesd_mem_gc_cycles_total", "borgesd_admission_limit"}
	before, err := scrape(client, d.base, names...)
	if err != nil {
		return err
	}
	limitMin := before["borgesd_admission_limit"]
	get := getRung(client, d.base, func(i int) string { return asPath(hot[i%len(hot)]) })
	v, err := rung(tr, "borgesd.as_rtt", dur, 16, func(i int) error {
		if i%1024 == 1023 {
			m, err := scrape(client, d.base, "borgesd_admission_limit")
			if err != nil {
				return err
			}
			limitMin = min(limitMin, m["borgesd_admission_limit"])
		}
		return get(i)
	})
	if err != nil {
		return err
	}
	after, err := scrape(client, d.base, names...)
	if err != nil {
		return err
	}
	r.set("borgesd.as_rtt_us", "us", "lower", v/1e3)
	r.set("admission.sheds", "count", "lower", after[names[0]]-before[names[0]])
	r.set("admission.queue_timeouts", "count", "lower", after[names[1]]-before[names[1]])
	r.set("admission.limit_min", "count", "higher", min(limitMin, after["borgesd_admission_limit"]))
	r.set("borgesd.gc_cycles", "count", "lower", after[names[2]]-before[names[2]])
	return nil
}

// reloadRungs times Server.Reload (full, from A's artifact) and
// Server.ReloadDelta (A→B, B→A), and the mapdiff work behind a delta.
func reloadRungs(ctx context.Context, tr *tracer, r *result, s *served) error {
	a, b := s.snapA.Mapping(), s.snapB.Mapping()
	var computeMS, readMS []float64
	for i := 0; i < 3; i++ {
		sp := tr.start("mapdiff.compute_delta", spanRef{})
		mapdiff.ComputeDelta(a, b)
		computeMS = append(computeMS, float64(sp.end())/1e6)
	}
	for i := 0; i < 3; i++ {
		sp := tr.start("mapdiff.read_delta", spanRef{})
		_, err := mapdiff.ReadDelta(bytes.NewReader(s.deltaAB))
		readMS = append(readMS, float64(sp.end())/1e6)
		r.check(err)
	}
	r.set("mapdiff.compute_delta_ms", "ms", "lower", median(computeMS))
	r.set("mapdiff.read_delta_ms", "ms", "lower", median(readMS))

	srv, err := serve.NewServer(s.snapA, serve.Options{Prepared: serve.SnapshotFileSource(s.artA), DeltaSource: serve.DeltaFileSource(s.live)})
	if err != nil {
		return err
	}
	var deltaMS, fullMS []float64
	for i := 0; i < 3; i++ {
		for _, step := range []struct {
			delta []byte
			want  string
		}{{s.deltaAB, s.hashB}, {s.deltaBA, s.hashA}, {nil, s.hashA}} {
			var snap *serve.Snapshot
			if step.delta != nil {
				if err := writeAtomic(s.live, step.delta); err != nil {
					return err
				}
				sp := tr.start("serve.reload_delta", spanRef{})
				snap, err = srv.ReloadDelta(ctx)
				deltaMS = append(deltaMS, float64(sp.end())/1e6)
			} else {
				sp := tr.start("serve.reload_full", spanRef{})
				snap, err = srv.Reload(ctx)
				fullMS = append(fullMS, float64(sp.end())/1e6)
			}
			if err == nil {
				err = sameHash("reload", snap.ContentHash(), step.want)
			}
			r.check(err)
		}
	}
	r.set("serve.reload_delta_ms", "ms", "lower", median(deltaMS))
	r.set("serve.reload_full_ms", "ms", "lower", median(fullMS))
	return nil
}
