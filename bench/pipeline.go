package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/nu-aqualab/borges/internal/cache"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/core"
	"github.com/nu-aqualab/borges/internal/llm"
	"github.com/nu-aqualab/borges/internal/memprobe"
	"github.com/nu-aqualab/borges/internal/orgfactor"
	"github.com/nu-aqualab/borges/internal/serve"
	"github.com/nu-aqualab/borges/internal/simllm"
	"github.com/nu-aqualab/borges/internal/synth"
)

// backend describes the simulated web and model a pipeline runs
// against: the zero value is the in-process simulation with no
// latency; pipeline-io adds fixed per-call delays.
type backend struct {
	webDelay time.Duration // per HTTP round trip
	llmDelay time.Duration // per completion
}

// webSeam wraps the pipeline's HTTP transport. It sits inside the
// crawl cache (it is what core.Run receives as Inputs.Transport), so a
// cache hit never reaches it, exactly as with a real network.
type webSeam struct {
	inner  http.RoundTripper
	delay  time.Duration
	reqs   atomic.Int64
	tr     *tracer
	parent spanRef // set between runs, never during one
}

func (w *webSeam) RoundTrip(r *http.Request) (*http.Response, error) {
	w.reqs.Add(1)
	sp := w.tr.start("websim.round_trip", w.parent)
	defer sp.end()
	if err := sleepCtx(r.Context(), w.delay); err != nil {
		return nil, err
	}
	return w.inner.RoundTrip(r)
}

// llmSeam wraps the pipeline's LLM provider, inside the completion
// cache like webSeam.
type llmSeam struct {
	inner  llm.Provider
	delay  time.Duration
	calls  atomic.Int64
	tr     *tracer
	parent spanRef
}

func (p *llmSeam) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	p.calls.Add(1)
	sp := p.tr.start("llm.complete", p.parent)
	defer sp.end()
	if err := sleepCtx(ctx, p.delay); err != nil {
		return llm.Response{}, err
	}
	return p.inner.Complete(ctx, req)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// seams builds fresh backend seams over a dataset.
func (b backend) seams(ds *synth.Dataset, tr *tracer) (*webSeam, *llmSeam) {
	return &webSeam{inner: ds.Web, delay: b.webDelay, tr: tr},
		&llmSeam{inner: simllm.NewModel(), delay: b.llmDelay, tr: tr}
}

// cliOptions are cmd/borges's defaults: every feature, an in-memory
// cache, 2 retries and breakers after 5 failures.
func cliOptions(feats *core.Features, c *cache.Cache) core.Options {
	return core.Options{Features: feats, Cache: c, MaxRetries: 2, BreakerThreshold: 5}
}

// featuresB is the second corpus of serve-mixed: the same inputs
// without favicons (borges -features oidp,na,rr).
var featuresB = core.Features{OIDP: true, NotesAka: true, RR: true}

// built is one pipeline run's product.
type built struct {
	mapping *cluster.Mapping
	snap    *serve.Snapshot
	path    string // the artifact
	hash    string
	dur     time.Duration // corpus in memory → artifact fsynced
	run     spanRef       // the core.run span (traced builds)
	web     *webSeam
	llm     *llmSeam
	cache   cache.Stats // the cache's counters moved by this run
}

// build runs core.Run, indexes the mapping for serving and writes the
// binary artifact to path (snapbin writes are fsynced before rename).
// With a tracer, the run is one trace: core.run with its backend
// calls as children, then the snapshot build and the write.
func build(ctx context.Context, ds *synth.Dataset, be backend, feats *core.Features, c *cache.Cache, path string, tr *tracer) (*built, error) {
	web, model := be.seams(ds, tr)
	in := core.Inputs{WHOIS: ds.WHOIS, PDB: ds.PDB, Transport: web, Provider: model}
	before := c.Stats()
	root := tr.start("build", spanRef{})
	start := time.Now()

	run := tr.start("core.run", root)
	web.parent, model.parent = run, run
	res, err := core.Run(ctx, in, cliOptions(feats, c))
	run.end()
	if err != nil {
		return nil, fmt.Errorf("core.Run: %w", err)
	}
	sp := tr.start("serve.snapshot_build", root)
	snap, err := serve.NewSnapshot(res.Mapping, "pipeline")
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start("snapbin.write", root)
	hash, err := serve.WriteSnapshotFile(path, snap)
	sp.end()
	if err != nil {
		return nil, err
	}
	dur := time.Since(start)
	root.end()
	return &built{
		mapping: res.Mapping, snap: snap, path: path, hash: hash, dur: dur, run: run,
		web: web, llm: model, cache: statsDelta(before, c.Stats()),
	}, nil
}

func statsDelta(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses,
		Dedups: b.Dedups - a.Dedups, Evictions: b.Evictions - a.Evictions,
	}
}

// pinned are the corpus counts seed 1 must reproduce; any drift means
// the pipeline's output changed, and the benchmark would be timing
// different work.
type pinned struct {
	asns, orgs int
	theta      float64 // rounded to 4 decimals
}

var pinnedSeed1 = map[float64]pinned{
	1.0: {117431, 93516, 0.3554},
	0.1: {11743, 9190, 0.3769},
}

// checkPinned verifies a full-feature mapping against the pinned counts
// when the seed and scale have them.
func checkPinned(seed int64, scale float64, m *cluster.Mapping) error {
	want, ok := pinnedSeed1[scale]
	if seed != 1 || !ok {
		return nil
	}
	theta, err := orgfactor.Theta(m)
	if err != nil {
		return err
	}
	got := pinned{m.NumASNs(), m.NumOrgs(), math.Round(theta*1e4) / 1e4}
	if got != want {
		return fmt.Errorf("seed 1 scale %g: got %d ASNs / %d orgs / θ %.4f, want %d / %d / %.4f",
			scale, got.asns, got.orgs, got.theta, want.asns, want.orgs, want.theta)
	}
	return nil
}

// generate times synth.Generate.
func generate(seed int64, scale float64) (*synth.Dataset, time.Duration, error) {
	start := time.Now()
	ds, err := synth.Generate(synth.Config{Seed: seed, Scale: scale})
	return ds, time.Since(start), err
}

// runPipeline is pipeline-paper and pipeline-io: repeated builds, each
// on a fresh cache and followed by a rebuild that reuses it, until the
// measured time is spent.
func runPipeline(ctx context.Context, e *env, r *result) error {
	ds, err := timedSetups(r, func() (*synth.Dataset, error) {
		ds, _, err := generate(e.seed, e.scaleOf())
		return ds, err
	}, func(*synth.Dataset) error { return nil })
	if err != nil {
		return err
	}

	path := filepath.Join(e.work, "mapping.snapbin")
	var builds, rebuilds, peaks []float64
	var ref string
	verify := func(b *built) {
		if ref == "" {
			ref = b.hash
			r.check(checkPinned(e.seed, e.scaleOf(), b.mapping))
		}
		r.check(sameHash("build", b.hash, ref))
		loaded, err := serve.LoadSnapshotFile(path)
		if err == nil {
			err = sameHash("LoadSnapshotFile", loaded.ContentHash(), b.hash)
		}
		r.check(err)
	}
	// Each timed build starts, like a borges run, without the previous
	// build's garbage. A cold build's peak RSS is the process's
	// high-water mark, reset just before it.
	timed := func(samples *[]float64, c *cache.Cache, cold bool) error {
		runtime.GC()
		reset := cold && memprobe.ResetPeak()
		b, err := build(ctx, ds, e.wl.backend, nil, c, path, nil)
		if err != nil {
			return err
		}
		*samples = append(*samples, b.dur.Seconds())
		if p, ok := memprobe.PeakRSS(); reset && ok {
			peaks = append(peaks, float64(p)/(1<<20))
		}
		verify(b)
		return nil
	}
	start := time.Now()
	for len(builds) == 0 || time.Since(start) < e.seconds {
		c, err := cache.New(cache.Options{})
		if err != nil {
			return err
		}
		if err := timed(&builds, c, true); err != nil {
			return err
		}
		if err := timed(&rebuilds, c, false); err != nil {
			return err
		}
	}
	r.Attempted += int64(len(builds) + len(rebuilds))

	r.timing("build_s", "s", builds)
	r.timing("rebuild_s", "s", rebuilds)
	if len(peaks) == 0 {
		p, ok := memprobe.PeakRSS()
		if !ok {
			return fmt.Errorf("peak RSS unavailable")
		}
		e.logf("VmHWM reset unavailable: peak_rss_mb is the process's lifetime peak")
		peaks = append(peaks, float64(p)/(1<<20))
	}
	r.Metrics["peak_rss_mb"] = metricValue{Value: median(peaks), Unit: "MiB", Better: "lower", N: len(peaks)}
	return nil
}

func sameHash(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s content hash %.12s, want %.12s", what, got, want)
	}
	return nil
}

func hitRatio(s cache.Stats) float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}
