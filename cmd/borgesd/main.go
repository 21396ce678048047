// Command borgesd serves a consolidated AS-to-Organization mapping over
// HTTP: point lookups, organization search, corpus statistics (θ), and
// operational metrics, with hot snapshot reload.
//
// Serve a mapping produced by cmd/borges:
//
//	borges -format jsonl -o mapping.jsonl
//	borgesd -addr :8080 -mapping mapping.jsonl
//
// or a binary snapshot artifact (borges -format binary, or a previous
// borgesd -snapshot-out), which cold-starts in milliseconds because
// nothing is re-parsed, re-tokenized, or re-rendered:
//
//	borgesd -addr :8080 -snapshot-in snapshot.bin
//
// or self-bootstrap from the calibrated synthetic corpus (generate →
// run pipeline in-process → serve):
//
//	borgesd -addr :8080 -seed 1 -scale 0.05
//
// -snapshot-out writes the snapshot as a binary artifact (atomically:
// temp file, fsync, rename) at boot and again after every successful
// reload, so a restart always cold-starts from the latest data.
// -delta-in names a mapping delta (borges-diff -delta); POST
// /admin/reload?mode=delta patches the serving snapshot in place of a
// full rebuild, validating the delta against the serving base first.
//
// A fleet distributes one build to many serving processes. The
// distributor publishes every snapshot swap as a versioned binary
// artifact, and replicas follow it — fetching resumably, verifying the
// content hash before anything serves, persisting a last-good artifact
// for crash recovery, and heartbeating their served version back:
//
//	borgesd -addr :8080 -fleet -snapshot-in snapshot.bin
//	borgesd -addr :8081 -join http://127.0.0.1:8080 -last-good r1.snapbin
//
// GET /fleet/status on the distributor reports which version each
// replica serves and flags divergence.
//
// Endpoints:
//
//	GET  /v1/as/{asn}     organization, siblings, contributing features
//	GET  /v1/org/{id}     one organization by cluster ID
//	GET  /v1/search?name= case-insensitive organization-name search
//	POST /v1/bulk         NDJSON stream of lookups (one ASN or {"asn":N}
//	                      per line in, one result per line out), served
//	                      from one pinned snapshot; -bulk-max-lines and
//	                      -max-body-bytes bound a request
//	GET  /v1/watch        SSE stream of cluster-membership changes (the
//	                      mapdiff edit script of each reload); ?since=
//	                      resumes after a disconnect
//	GET  /v1/stats        θ, org/ASN counts, size histogram
//	POST /admin/reload    re-read -mapping or -snapshot-in (or re-run
//	                      the pipeline)
//	POST /admin/rollback  swap back to the newest verified generation
//	                      (with -keep-generations)
//	GET  /healthz         liveness + snapshot age + degraded/ok run health
//	GET  /metrics         Prometheus text format
//	GET  /debug/pprof/*   runtime profiles (only with -pprof)
//
// POST /admin/reload swaps the snapshot atomically: in-flight requests
// finish on the old view, new requests see the new one, and a reload
// that fails to parse or validate leaves the old snapshot serving. The
// daemon exits cleanly on SIGINT/SIGTERM, draining in-flight requests.
//
// Under overload the daemon degrades instead of collapsing: an
// adaptive concurrency limiter (-max-inflight, -target-latency) sheds
// excess load with 503 + Retry-After, per-client token buckets
// (-rate, -burst) refuse abusive clients with 429, /v1/search sheds
// first and browns out (capped, cheaper results) under pressure
// (-shed-search-first), and /healthz, /metrics, and /admin/* are never
// shed. See the borgesd_admission_* series on /metrics.
//
// borgesd logs one JSON object per line to stderr. -q silences the
// per-event records (requests, reloads, scrub findings, generation-ring
// and fleet events), not the start-up and shutdown ones.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	borges "github.com/nu-aqualab/borges"
)

func main() {
	// One JSON handler takes borgesd's records and net/http's log lines;
	// fatal logs an error record and exits 1, as log.Fatal did.
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	addr := flag.String("addr", ":8080", "listen address")
	mapping := flag.String("mapping", "", "mapping file to serve: JSONL (borges -format jsonl) or a binary artifact, sniffed by magic; reload re-reads it")
	snapshotIn := flag.String("snapshot-in", "", "snapshot file to serve: a binary artifact (borges -format binary, borgesd -snapshot-out) or mapping JSONL, sniffed by magic; reload re-reads it")
	snapshotOut := flag.String("snapshot-out", "", "write the initial snapshot as a binary artifact to this path, then keep serving")
	deltaIn := flag.String("delta-in", "", "mapping delta JSONL (borges-diff -delta); POST /admin/reload?mode=delta applies it to the serving snapshot")
	seed := flag.Int64("seed", 1, "synthetic corpus seed (when neither -mapping nor -snapshot-in is set)")
	scale := flag.Float64("scale", 0.05, "synthetic corpus scale (when neither -mapping nor -snapshot-in is set)")
	timeout := flag.Duration("timeout", 0, "per-request timeout (0 = default 10s)")
	pprof := flag.Bool("pprof", false, "expose /debug/pprof/* profiling handlers")
	quiet := flag.Bool("q", false, "silence the per-event records: requests, sheds, reloads, persists, rollbacks, scrub findings, generation-ring changes and fleet actions (start-up and shutdown records still print)")
	maxRetries := flag.Int("max-retries", 2, "retries per transient pipeline fault (0 = fail on first error)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive failures before a host/model circuit opens (0 = no breakers)")
	maxInflight := flag.Int("max-inflight", 256, "adaptive concurrency ceiling for lookup endpoints (0 disables admission control)")
	rate := flag.Float64("rate", 50, "per-client sustained requests/sec, keyed by X-Api-Key or client IP (0 disables per-client rate limiting)")
	burst := flag.Int("burst", 100, "per-client burst capacity for -rate")
	targetLatency := flag.Duration("target-latency", 150*time.Millisecond, "latency target steering the adaptive concurrency limit")
	shedSearchFirst := flag.Bool("shed-search-first", true, "shed /v1/search before point lookups under overload (search also browns out under pressure)")
	bulkMaxLines := flag.Int("bulk-max-lines", 0, "max input lines per /v1/bulk request (0 = default 1048576)")
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "max request body bytes on body-reading endpoints (0 = default 64 MiB)")
	watchBuffer := flag.Int("watch-buffer", 0, "per-subscriber /v1/watch event queue depth; a subscriber this many reloads behind is evicted (0 = default 64)")
	keepGenerations := flag.Int("keep-generations", 0, "keep the last N verified snapshot generations on disk for rollback (0 disables the generation ring)")
	generationsDir := flag.String("generations-dir", "borgesd-generations", "directory holding the generation ring (with -keep-generations)")
	scrubInterval := flag.Duration("scrub-interval", 0, "background integrity-scrub period: re-verify generations, -snapshot-out, and replica last-good artifacts, quarantining corruption; a failed post-scrub health probe auto-rolls back (0 disables)")
	noCanary := flag.Bool("no-canary", false, "skip the canary check that replays sampled lookups against every candidate snapshot before it swaps in")
	canarySamples := flag.Int("canary-samples", 0, "lookups the canary replays per candidate snapshot (0 = default 64)")
	canaryThetaTol := flag.Float64("canary-theta-tol", 0, "reject a candidate whose θ differs from the serving snapshot's by more than this (0 disables the θ gate)")
	fleetMode := flag.Bool("fleet", false, "distributor mode: publish versioned snapshot artifacts on /fleet/* for replicas to follow")
	join := flag.String("join", "", "replica mode: follow the distributor at this base URL (e.g. http://host:8080); snapshots come from it, not from -mapping/-snapshot-in")
	replicaID := flag.String("replica-id", "", "replica identity in heartbeats and /fleet/status (default hostname-pid)")
	lastGood := flag.String("last-good", "borgesd-lastgood.snapbin", "replica last-good artifact path: every verified snapshot is persisted here and cold starts load it before touching the network")
	heartbeatInterval := flag.Duration("heartbeat-interval", 5*time.Second, "replica served-version report period")
	pollInterval := flag.Duration("poll-interval", 5*time.Second, "replica manifest poll fallback period (the watch stream and heartbeats usually notify faster)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := borges.ServeOptions{
		RequestTimeout: *timeout,
		EnablePprof:    *pprof,
		BulkMaxLines:   *bulkMaxLines,
		MaxBodyBytes:   *maxBodyBytes,
		WatchBuffer:    *watchBuffer,
	}
	if !*quiet {
		opts.Logger = logger
	}
	if *maxInflight > 0 {
		opts.Admission = &borges.AdmissionConfig{
			MaxInflight:     *maxInflight,
			TargetLatency:   *targetLatency,
			Rate:            *rate,
			Burst:           *burst,
			ShedSearchFirst: *shedSearchFirst,
		}
	}

	if *deltaIn != "" {
		opts.DeltaSource = borges.MappingDeltaFileSource(*deltaIn)
	}

	// Snapshot persistence after every successful swap is handled by
	// the serving layer: best-effort (a failed write is logged and
	// counted as borgesd_snapshot_persist_errors_total, never fails the
	// swap), atomic, and scrubbed for at-rest corruption.
	opts.SnapshotOut = *snapshotOut
	opts.Canary = borges.CanaryConfig{
		Disable:        *noCanary,
		Samples:        *canarySamples,
		ThetaTolerance: *canaryThetaTol,
	}
	opts.ScrubInterval = *scrubInterval

	var ring *borges.GenerationRing
	if *keepGenerations > 0 {
		var err error
		ring, err = borges.NewGenerationRing(*generationsDir, *keepGenerations, opts.Logger)
		if err != nil {
			fatal("generation ring failed", "error", err)
		}
		opts.Generations = ring
		logger.Info("generation ring opened", "dir", *generationsDir, "keep", *keepGenerations, "recovered", ring.Len())
	}

	if *join != "" {
		if *mapping != "" || *snapshotIn != "" || *fleetMode {
			fatal("-join is mutually exclusive with -mapping, -snapshot-in, and -fleet")
		}
		id := *replicaID
		if id == "" {
			host, _ := os.Hostname()
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		rep, err := borges.NewFleetReplica(ctx, borges.FleetReplicaOptions{
			ID:                id,
			Distributor:       *join,
			LastGood:          *lastGood,
			Addr:              *addr,
			PollInterval:      *pollInterval,
			HeartbeatInterval: *heartbeatInterval,
			Serve:             opts,
			Logger:            opts.Logger,
		})
		if err != nil {
			fatal("fleet replica failed", "error", err)
		}
		snap := rep.Server().Snapshot()
		if ring != nil {
			if _, err := ring.Record(snap, time.Now()); err != nil {
				logger.Warn("generation ring record failed", "error", err)
			}
		}
		st := snap.Stats()
		logger.Info("replica serving", "id", id, "orgs", st.Orgs, "asns", st.ASNs,
			"hash", snap.ContentHash(), "addr", *addr, "distributor", *join)
		go rep.Run(ctx) // returns only when ctx ends
		if err := rep.Serve(ctx, *addr); err != nil {
			fatal("serve failed", "error", err)
		}
		logger.Info("shut down cleanly")
		return
	}

	// Every bootstrap is one PreparedSnapshotSource: borgesd calls it
	// once for the boot snapshot, and every full /admin/reload calls it
	// again.
	label := *snapshotIn
	if *mapping != "" {
		if label != "" {
			fatal("-snapshot-in and -mapping are mutually exclusive")
		}
		label = *mapping
	}
	var source borges.PreparedSnapshotSource
	if label != "" {
		source = borges.SnapshotFileSource(label)
	} else {
		// One cache outlives the source closure so every /admin/reload
		// replays memoized LLM completions and crawl outcomes instead of
		// re-running them — including healing reloads after a degraded
		// run, which re-fetch only the quarantined items.
		store, _ := borges.NewCache(borges.CacheOptions{}) // fails only on opening a disk tier
		label = "synthetic pipeline"
		source = pipelineSource(label, *seed, *scale, store, borges.Options{
			MaxRetries:       *maxRetries,
			BreakerThreshold: *breakerThreshold,
		})
	}
	opts.Prepared = source
	logger.Info("loading snapshot", "source", label)
	snap, err := source(ctx)
	if err != nil {
		fatal("snapshot load failed", "source", label, "error", err)
	}
	logger.Info("snapshot loaded", "mode", snap.LoadMode(), "hash", snap.ContentHash())

	if *snapshotOut != "" {
		// Boot-time persistence failing is a warning, not a reason to
		// refuse service: the snapshot is in memory and serving, the
		// persist-error metric reflects the miss, and the scrubber (or
		// the next successful swap) rewrites the artifact.
		if hash, err := borges.WriteSnapshotFile(*snapshotOut, snap); err != nil {
			logger.Warn("snapshot-out failed; continuing without boot persistence", "path", *snapshotOut, "error", err)
		} else {
			logger.Info("wrote binary snapshot", "path", *snapshotOut, "hash", hash)
		}
	}
	if ring != nil {
		// The boot snapshot becomes generation one, so the very first
		// reload is already reversible.
		if _, err := ring.Record(snap, time.Now()); err != nil {
			logger.Warn("generation ring record failed", "error", err)
		}
	}

	st := snap.Stats()
	logger.Info("serving", "orgs", st.Orgs, "asns", st.ASNs, "theta", st.Theta, "addr", *addr)

	if *fleetMode {
		dist, err := borges.NewFleetDistributor(snap, opts, borges.FleetDistributorOptions{
			Logger: opts.Logger,
		})
		if err != nil {
			fatal("fleet distributor failed", "error", err)
		}
		logger.Info("distributing snapshots", "addr", *addr, "hash", dist.Manifest().ContentHash)
		if err := dist.Serve(ctx, *addr); err != nil {
			fatal("serve failed", "error", err)
		}
		logger.Info("shut down cleanly")
		return
	}

	if err := borges.Serve(ctx, *addr, snap, opts); err != nil {
		fatal("serve failed", "error", err)
	}
	logger.Info("shut down cleanly")
}

// pipelineSource builds the -seed/-scale self-bootstrap: each call
// regenerates the seeded synthetic corpus, runs the full Borges
// pipeline in-process and indexes the mapping under label. The cache
// is shared across reloads, so only the first run pays for LLM
// completions and crawls, and the run's fault report travels with the
// snapshot into /healthz, /v1/stats, and /metrics. A degraded run is
// logged at boot and on every reload.
func pipelineSource(label string, seed int64, scale float64, store *borges.Cache, base borges.Options) borges.PreparedSnapshotSource {
	return func(ctx context.Context) (*borges.Snapshot, error) {
		opts := base
		opts.Cache = store
		ds, err := borges.GenerateDataset(borges.DatasetConfig{Seed: seed, Scale: scale})
		if err != nil {
			return nil, err
		}
		res, err := borges.Run(ctx, borges.Inputs{
			WHOIS:     ds.WHOIS,
			PDB:       ds.PDB,
			Transport: ds.Web,
			Provider:  borges.NewSimulatedLLM(),
		}, opts)
		if err != nil {
			return nil, err
		}
		health := borges.HealthFromReport(res.Report)
		if health.Status != borges.SnapshotHealthOK {
			slog.Warn("pipeline degraded", "quarantined", health.Quarantined, "detail", health.Detail)
		}
		return borges.NewSnapshotWithHealth(res.Mapping, label, health)
	}
}
