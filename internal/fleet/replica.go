package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nu-aqualab/borges/client"
	"github.com/nu-aqualab/borges/internal/mapdiff"
	"github.com/nu-aqualab/borges/internal/obs"
	"github.com/nu-aqualab/borges/internal/resilience"
	"github.com/nu-aqualab/borges/internal/serve"
	"github.com/nu-aqualab/borges/internal/vfs"
)

// errSuperseded reports that the artifact version a fetch asked for
// was replaced mid-flight (the distributor answered 410). Not
// transient: retrying the same URL cannot succeed — the follower loop
// refetches the manifest on its next trigger instead.
var errSuperseded = errors.New("fleet: artifact version superseded during fetch")

// ReplicaOptions tune a Replica.
type ReplicaOptions struct {
	// ID identifies this replica in heartbeats and /fleet/status.
	// Required; keep it stable across restarts.
	ID string
	// Distributor is the distributor's base URL ("http://host:port").
	// Required.
	Distributor string
	// LastGood is the path where every verified artifact is persisted
	// (atomic temp+fsync+rename), and the first place a cold start
	// looks: a crashed replica restarts in milliseconds serving its
	// last-good snapshot while re-syncing in the background. Required.
	LastGood string
	// Addr, when set, is advertised in heartbeats so /fleet/status can
	// name where this replica serves.
	Addr string
	// HTTPClient overrides the fetch transport (default
	// http.DefaultClient). Chaos tests inject faults here.
	HTTPClient *http.Client
	// FS overrides the filesystem used for last-good and .part I/O
	// (default the real one). Chaos tests inject disk faults here the
	// same way HTTPClient injects transport faults.
	FS vfs.FS
	// PollInterval is the manifest poll fallback period (default 5s).
	// The watch stream and heartbeat responses usually deliver change
	// notifications faster; the poll is the floor on staleness when
	// both are down.
	PollInterval time.Duration
	// HeartbeatInterval is the served-version report period (default 5s).
	HeartbeatInterval time.Duration
	// MaxAttempts bounds attempts per fetch, including retries of
	// transport faults and 429/503 (default 5).
	MaxAttempts int
	// RetryBaseDelay is the first retry backoff (default 250ms).
	RetryBaseDelay time.Duration
	// RetrySeed makes retry jitter deterministic in tests.
	RetrySeed int64
	// BreakerThreshold is the consecutive-failure count that opens the
	// per-distributor circuit (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit denies fetches
	// before probing (default 2s).
	BreakerCooldown time.Duration
	// Serve configures the replica's local lookup server. Prepared is
	// owned by the replica (reloads are driven by the sync loop); OnSwap
	// is kept. The replica's borgesd_fleet_* families are registered on
	// the server's registry.
	Serve serve.Options
	// Logger receives one record per sync action. Nil logs nothing.
	Logger *slog.Logger
	// sleepFn overrides retry sleeping in tests.
	sleepFn func(ctx context.Context, d time.Duration) error
}

// Replica is one follower: a local lookup server whose snapshots come
// from a distributor, each fetched resumably, verified against the
// manifest's content hash before it ever touches the serving path, and
// persisted locally so the next cold start needs no network.
type Replica struct {
	opts ReplicaOptions
	base string // distributor URL, trailing slash trimmed
	http *http.Client
	fsys vfs.FS
	exec *resilience.Executor
	srv  *serve.Server

	mu     sync.Mutex
	staged *serve.Snapshot // verified, awaiting the server's swap

	syncedSeq           atomic.Uint64
	fullFetches         atomic.Int64
	deltaFetches        atomic.Int64
	deltaFallbacks      atomic.Int64
	corruptRejected     atomic.Int64
	resumedFetches      atomic.Int64
	watchReconnects     atomic.Int64
	heartbeatErrs       atomic.Int64
	lastGoodQuarantined atomic.Int64
	lastGoodRepairs     atomic.Int64
}

// NewReplica joins a distributor. Cold start prefers the local
// last-good artifact — decoded and hash-verified in milliseconds, no
// network — and only blocks on a first full fetch when none exists.
// Either way the replica starts serving a verified snapshot; call Run
// to start the follower loop that keeps it converged.
func NewReplica(ctx context.Context, opts ReplicaOptions) (*Replica, error) {
	if opts.ID == "" {
		return nil, errors.New("fleet: ReplicaOptions.ID is required")
	}
	if opts.Distributor == "" {
		return nil, errors.New("fleet: ReplicaOptions.Distributor is required")
	}
	if opts.LastGood == "" {
		return nil, errors.New("fleet: ReplicaOptions.LastGood is required")
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 5 * time.Second
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 5 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 5
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 2 * time.Second
	}
	opts.Logger = obs.OrDiscard(opts.Logger)
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	r := &Replica{
		opts: opts,
		base: strings.TrimRight(opts.Distributor, "/"),
		http: hc,
		fsys: vfs.Or(opts.FS),
		exec: &resilience.Executor{
			Policy: &resilience.Policy{
				MaxAttempts: opts.MaxAttempts,
				BaseDelay:   opts.RetryBaseDelay,
				Seed:        opts.RetrySeed,
				SleepFn:     opts.sleepFn,
			},
			Breakers: &resilience.BreakerSet{
				Threshold: opts.BreakerThreshold,
				Cooldown:  opts.BreakerCooldown,
			},
		},
	}

	snap, err := r.coldStart(ctx)
	if err != nil {
		return nil, err
	}
	serveOpts := opts.Serve
	serveOpts.Prepared = r.prepared
	if serveOpts.FS == nil {
		serveOpts.FS = r.fsys
	}
	// The replica's last-good artifact joins the server's scrub sweep:
	// corruption at rest is quarantined and repaired from the
	// distributor instead of waiting to bite the next cold start.
	serveOpts.ScrubTargets = append(append([]serve.ScrubTarget(nil), serveOpts.ScrubTargets...),
		serve.ScrubTarget{Name: "fleet-last-good", Scrub: r.scrubLastGood})
	srv, err := serve.NewServer(snap, serveOpts)
	if err != nil {
		return nil, err
	}
	r.srv = srv
	r.register(srv.Registry())
	return r, nil
}

// coldStart resolves the replica's first snapshot: the last-good
// artifact when it decodes and verifies, otherwise a blocking first
// fetch from the distributor.
func (r *Replica) coldStart(ctx context.Context) (*serve.Snapshot, error) {
	if snap, err := serve.LoadSnapshotFileFS(r.fsys, r.opts.LastGood); err == nil {
		r.opts.Logger.Info("fleet_coldstart", "source", "last-good", "hash", snap.ContentHash())
		return snap, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		// A corrupt last-good (torn by a crash outside the atomic
		// rename, bit rot) is not fatal — fall through to a full fetch
		// and overwrite it with a verified artifact.
		r.opts.Logger.Info("fleet_coldstart", "source", "last-good", "ok", false, "error", err)
	}
	man, err := r.fetchManifest(ctx)
	if err != nil {
		return nil, fmt.Errorf("fleet: no last-good artifact and manifest fetch failed: %w", err)
	}
	snap, err := r.fetchFull(ctx, man)
	if err != nil {
		return nil, fmt.Errorf("fleet: first snapshot fetch failed: %w", err)
	}
	r.syncedSeq.Store(man.Seq)
	r.opts.Logger.Info("fleet_coldstart", "source", "fetch", "seq", man.Seq, "hash", snap.ContentHash())
	return snap, nil
}

// Server returns the replica's local lookup server.
func (r *Replica) Server() *serve.Server { return r.srv }

// SyncedSeq returns the last manifest sequence this replica converged
// to (0 until the first successful sync after a last-good cold start).
func (r *Replica) SyncedSeq() uint64 { return r.syncedSeq.Load() }

// Serve listens on addr and serves the replica's lookup API until ctx
// is cancelled. Run must be started separately — serving and following
// are independent so either can be tested without the other.
func (r *Replica) Serve(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return r.srv.ServeListener(ctx, ln)
}

// Run drives the follower loop until ctx is cancelled: ride the
// distributor's /v1/watch stream for publish notifications, poll the
// manifest as a fallback, heartbeat the served version, and sync
// whenever any of them reports a change. Fetch failures are retried
// under the replica's policy and breaker; a sync that ultimately fails
// leaves the current snapshot serving and the next trigger tries
// again. On return Run closes its client's idle connections, since the
// distributor's shutdown waits five seconds for one that sent nothing.
func (r *Replica) Run(ctx context.Context) error {
	defer r.http.CloseIdleConnections()
	notify := make(chan struct{}, 1)
	poke := func() {
		select {
		case notify <- struct{}{}:
		default:
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.rideWatch(ctx, poke)
	}()
	defer wg.Wait()

	poll := time.NewTicker(r.opts.PollInterval)
	defer poll.Stop()
	hb := time.NewTicker(r.opts.HeartbeatInterval)
	defer hb.Stop()

	r.syncOnce(ctx)
	r.heartbeat(ctx, poke)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-notify:
			r.syncOnce(ctx)
		case <-poll.C:
			r.syncOnce(ctx)
		case <-hb.C:
			r.heartbeat(ctx, poke)
		}
	}
}

// rideWatch follows the distributor's /v1/watch SSE stream and pokes
// the sync loop on every publish event. The client reconnects forever
// under its own policy-driven backoff; reconnect counts surface as the
// borgesd_fleet_watch_reconnects_total metric.
func (r *Replica) rideWatch(ctx context.Context, poke func()) {
	wc, err := client.New(client.Config{
		BaseURL:        r.base,
		HTTPClient:     r.http,
		RetryBaseDelay: r.opts.RetryBaseDelay,
		RetrySeed:      r.opts.RetrySeed,
		OnReconnect: func(n int64, err error) {
			r.watchReconnects.Store(n)
		},
	})
	if err != nil {
		r.opts.Logger.Info("fleet_watch", "ok", false, "error", err)
		return
	}
	defer wc.Close()
	err = wc.Watch(ctx, 0, func(ev *client.WatchEvent) error {
		poke()
		return nil
	})
	if err != nil && ctx.Err() == nil {
		r.opts.Logger.Info("fleet_watch", "ok", false, "error", err)
	}
}

// syncOnce converges the replica one step: fetch the manifest, and if
// the published hash differs from the serving one, fetch the new
// version — the mapdiff delta path when this replica's hash matches
// the delta's base, the full artifact otherwise or when the delta path
// fails — verify it, and swap it in.
func (r *Replica) syncOnce(ctx context.Context) error {
	man, err := r.fetchManifest(ctx)
	if err != nil {
		r.opts.Logger.Info("fleet_sync", "ok", false, "stage", "manifest", "error", err)
		return err
	}
	cur := r.srv.Snapshot()
	if man.ContentHash == cur.ContentHash() {
		r.syncedSeq.Store(man.Seq)
		return nil
	}
	if man.Delta != nil && man.Delta.BaseHash == cur.ContentHash() {
		next, derr := r.applyDelta(ctx, man, cur)
		if derr == nil {
			return r.swap(ctx, next, man, "delta")
		}
		// ErrDeltaMismatch, a corrupt delta, or a mid-flight
		// supersession: fall back to the full artifact.
		r.deltaFallbacks.Add(1)
		r.opts.Logger.Info("fleet_sync", "stage", "delta", "fallback", true, "error", derr)
	}
	next, err := r.fetchFull(ctx, man)
	if err != nil {
		r.opts.Logger.Info("fleet_sync", "ok", false, "stage", "full", "error", err)
		return err
	}
	return r.swap(ctx, next, man, "full")
}

// swap stages the verified snapshot and drives it through the server's
// validate-then-swap reload.
func (r *Replica) swap(ctx context.Context, next *serve.Snapshot, man *Manifest, how string) error {
	r.mu.Lock()
	r.staged = next
	r.mu.Unlock()
	if _, err := r.srv.Reload(ctx); err != nil {
		r.opts.Logger.Info("fleet_sync", "ok", false, "stage", "swap", "error", err)
		return err
	}
	r.syncedSeq.Store(man.Seq)
	r.opts.Logger.Info("fleet_sync", "ok", true, "how", how, "seq", man.Seq, "hash", man.ContentHash)
	return nil
}

// prepared is the replica's serve.PreparedSource: it hands the staged,
// already-verified snapshot to the server's reload path. Reloads not
// driven by the sync loop (an operator's bare /admin/reload) have
// nothing staged and fail without disturbing the serving snapshot.
func (r *Replica) prepared(ctx context.Context) (*serve.Snapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.staged == nil {
		return nil, errors.New("fleet: no staged snapshot (replica reloads are driven by its sync loop)")
	}
	s := r.staged
	r.staged = nil
	return s, nil
}

// fetchManifest GETs and validates the distributor's manifest under
// the retry policy and breaker.
func (r *Replica) fetchManifest(ctx context.Context) (*Manifest, error) {
	var man *Manifest
	err := r.exec.Do(ctx, r.base, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+PathManifest, nil)
		if err != nil {
			return err
		}
		resp, err := r.http.Do(req)
		if err != nil {
			return resilience.MarkTransient(err)
		}
		defer resp.Body.Close()
		if err := fetchStatus(resp); err != nil {
			return err
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			return resilience.MarkTransient(err)
		}
		man, err = ParseManifest(data)
		return err
	})
	if err != nil {
		return nil, err
	}
	return man, nil
}

// applyDelta fetches the published delta and patches the serving
// snapshot incrementally. The patched snapshot must reproduce the
// manifest's content hash exactly — the delta path and the full path
// are interchangeable by construction, and this check is what makes a
// corrupted or misdirected delta unable to reach the serving path.
func (r *Replica) applyDelta(ctx context.Context, man *Manifest, cur *serve.Snapshot) (*serve.Snapshot, error) {
	var next *serve.Snapshot
	err := r.exec.Do(ctx, r.base, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+man.Delta.URL, nil)
		if err != nil {
			return err
		}
		resp, err := r.http.Do(req)
		if err != nil {
			return resilience.MarkTransient(err)
		}
		defer resp.Body.Close()
		if err := fetchStatus(resp); err != nil {
			return err
		}
		d, err := mapdiff.ReadDelta(io.LimitReader(resp.Body, man.Delta.Size+1))
		if err != nil {
			return resilience.MarkTransient(fmt.Errorf("fleet: reading delta: %w", err))
		}
		patched, err := cur.ApplyDelta(d)
		if err != nil {
			return err // ErrDeltaMismatch et al: non-transient, caller falls back
		}
		if patched.ContentHash() != man.ContentHash {
			r.corruptRejected.Add(1)
			return fmt.Errorf("fleet: delta-patched snapshot hash %s != manifest %s",
				patched.ContentHash(), man.ContentHash)
		}
		next = patched
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.deltaFetches.Add(1)
	// Persist the new version as last-good (atomic temp+fsync+rename)
	// so a crash right after the swap still cold-starts current. The
	// re-encode necessarily reproduces the verified hash — the encoding
	// is deterministic over logical content.
	if _, err := serve.WriteSnapshotFileFS(r.fsys, r.opts.LastGood, next); err != nil {
		r.opts.Logger.Info("fleet_lastgood", "ok", false, "error", err)
	}
	return next, nil
}

// partPath names the in-progress download for one artifact version.
// Keying the filename by content hash means a crashed fetch can only
// ever be resumed toward the same bytes it started with.
func (r *Replica) partPath(hash string) string {
	return r.opts.LastGood + "." + hash[:16] + ".part"
}

// fetchFull downloads the full artifact resumably: progress lands in a
// hash-keyed .part file, a retry (or a restart after a crash) resumes
// with a ranged GET past the bytes already on disk, and only an
// artifact whose decode reproduces the manifest's content hash is
// renamed into place as last-good and returned for serving.
func (r *Replica) fetchFull(ctx context.Context, man *Manifest) (*serve.Snapshot, error) {
	part := r.partPath(man.ContentHash)
	var next *serve.Snapshot
	err := r.exec.Do(ctx, r.base, func(ctx context.Context) error {
		var err error
		next, err = r.fetchFullOnce(ctx, man, part)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.fullFetches.Add(1)
	return next, nil
}

// fetchFullOnce is one fetch attempt. Transient outcomes (transport
// faults, torn transfers, corrupt payloads, 429/503) are marked for
// retry; a torn transfer leaves the .part in place so the retry
// resumes, while a corrupt payload removes it so the retry starts
// clean.
func (r *Replica) fetchFullOnce(ctx context.Context, man *Manifest, part string) (*serve.Snapshot, error) {
	var offset int64
	if fi, err := r.fsys.Stat(part); err == nil {
		offset = fi.Size()
	}
	if offset > man.Size {
		// Stale or foreign partial; impossible to resume meaningfully.
		_ = r.fsys.Remove(part)
		offset = 0
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+man.SnapshotURL, nil)
	if err != nil {
		return nil, err
	}
	if offset > 0 {
		req.Header.Set("Range", "bytes="+strconv.FormatInt(offset, 10)+"-")
	}
	resp, err := r.http.Do(req)
	if err != nil {
		return nil, resilience.MarkTransient(err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		// Full body regardless of the Range request: start over.
		offset = 0
	case http.StatusPartialContent:
		r.resumedFetches.Add(1)
	case http.StatusRequestedRangeNotSatisfiable:
		_ = r.fsys.Remove(part)
		return nil, resilience.MarkTransient(fmt.Errorf("fleet: range %d rejected for %s", offset, man.ContentHash))
	default:
		if err := fetchStatus(resp); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("fleet: unexpected snapshot fetch status %s", resp.Status)
	}

	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if offset == 0 {
		flags |= os.O_TRUNC
	}
	f, err := r.fsys.OpenFile(part, flags, 0o644)
	if err != nil {
		return nil, err
	}
	_, copyErr := io.Copy(f, resp.Body)
	syncErr := f.Sync()
	closeErr := f.Close()
	if copyErr != nil {
		// Torn mid-transfer: keep the .part — the retry resumes past
		// what made it to disk.
		return nil, resilience.MarkTransient(fmt.Errorf("fleet: snapshot transfer torn: %w", copyErr))
	}
	if syncErr != nil {
		return nil, syncErr
	}
	if closeErr != nil {
		return nil, closeErr
	}

	fi, err := r.fsys.Stat(part)
	if err != nil {
		return nil, err
	}
	if fi.Size() < man.Size {
		// The server ended the body early without an error (connection
		// closed cleanly mid-artifact). Resume on retry.
		return nil, resilience.MarkTransient(fmt.Errorf("fleet: short artifact: %d of %d bytes", fi.Size(), man.Size))
	}
	// The decode streams from the .part, section by section, so the
	// artifact is never held whole in memory.
	snap, err := serve.LoadSnapshotFileFS(r.fsys, part)
	if err != nil {
		// Complete but corrupt (flipped bytes, wrong sections): the
		// .part cannot be healed by resuming. Discard and refetch.
		r.corruptRejected.Add(1)
		_ = r.fsys.Remove(part)
		return nil, resilience.MarkTransient(fmt.Errorf("fleet: artifact rejected: %w", err))
	}
	if snap.ContentHash() != man.ContentHash {
		r.corruptRejected.Add(1)
		_ = r.fsys.Remove(part)
		return nil, resilience.MarkTransient(fmt.Errorf("fleet: artifact hash %s != manifest %s",
			snap.ContentHash(), man.ContentHash))
	}
	// Verified: promote to last-good. The bytes are already fsynced;
	// the rename makes the swap atomic, and the directory fsync makes
	// it durable — same discipline as snapbin.WriteFileFS.
	if err := r.fsys.Rename(part, r.opts.LastGood); err != nil {
		return nil, err
	}
	_ = r.fsys.SyncDir(filepath.Dir(r.opts.LastGood))
	return snap, nil
}

// heartbeat POSTs the served version to the distributor. The response
// is the current manifest; a hash mismatch pokes the sync loop, so
// heartbeats double as a change-notification channel.
func (r *Replica) heartbeat(ctx context.Context, poke func()) {
	cur := r.srv.Snapshot()
	hb := Heartbeat{
		ID:          r.opts.ID,
		Seq:         r.syncedSeq.Load(),
		ContentHash: cur.ContentHash(),
		Addr:        r.opts.Addr,
	}
	body, err := json.Marshal(hb)
	if err != nil {
		r.heartbeatErrs.Add(1)
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+PathHeartbeat, bytes.NewReader(body))
	if err != nil {
		r.heartbeatErrs.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.http.Do(req)
	if err != nil {
		r.heartbeatErrs.Add(1)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.heartbeatErrs.Add(1)
		return
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return
	}
	if man, err := ParseManifest(data); err == nil && man.ContentHash != cur.ContentHash() {
		poke()
	}
}

// scrubLastGood is the replica's scrub target: re-verify the last-good
// artifact at rest and, when it is corrupt, quarantine it and repair by
// re-fetching the current version from the distributor — the replica is
// exactly the node that can restore its own durable state from the
// source of truth. A missing file is not corruption (a fresh replica
// simply hasn't persisted yet); a repair failure leaves the quarantine
// in place and reports the error, and the next cycle tries again.
func (r *Replica) scrubLastGood(ctx context.Context) serve.ScrubResult {
	path := r.opts.LastGood
	if _, err := r.fsys.Stat(path); err != nil {
		return serve.ScrubResult{}
	}
	res := serve.ScrubResult{Checked: 1}
	if _, err := serve.LoadSnapshotFileFS(r.fsys, path); err == nil {
		return res
	}
	if err := r.fsys.Rename(path, path+".corrupt"); err == nil {
		res.Quarantined = 1
		r.lastGoodQuarantined.Add(1)
		r.opts.Logger.Info("fleet_lastgood_quarantine", "path", path)
	}
	man, err := r.fetchManifest(ctx)
	if err != nil {
		res.Err = fmt.Errorf("fleet: last-good repair: %w", err)
		return res
	}
	// fetchFull verifies against the manifest hash and promotes the
	// artifact into place as last-good — the repair is the normal
	// download path, not a special case.
	if _, err := r.fetchFull(ctx, man); err != nil {
		res.Err = fmt.Errorf("fleet: last-good repair: %w", err)
		return res
	}
	res.Repaired = 1
	r.lastGoodRepairs.Add(1)
	r.opts.Logger.Info("fleet_lastgood_repair", "ok", true, "hash", man.ContentHash)
	return res
}

// fetchStatus classifies a non-200 fleet response: 429/503 become
// transient StatusErrors carrying the Retry-After hint, 410 a
// supersession, the rest plain errors.
func fetchStatus(resp *http.Response) error {
	switch resp.StatusCode {
	case http.StatusOK, http.StatusPartialContent:
		return nil
	case http.StatusGone:
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return errSuperseded
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return &resilience.StatusError{
			Code:       resp.StatusCode,
			RetryAfter: resilience.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()),
		}
	default:
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fleet: distributor returned %s", resp.Status)
	}
}

// register declares the replica's borgesd_fleet_* families.
func (r *Replica) register(reg *obs.Registry) {
	reg.Gauge("borgesd_fleet_synced_seq", "Last distributor manifest sequence this replica converged to.", func() float64 {
		return float64(r.syncedSeq.Load())
	})
	reg.Counter("borgesd_fleet_fetch_retries_total", "Fetch attempts retried after transient faults.", func() float64 {
		return float64(r.exec.Stats().Retries)
	})
	reg.Counter("borgesd_fleet_breaker_trips_total", "Distributor circuit-breaker openings.", func() float64 {
		return float64(r.exec.Stats().BreakerTrips)
	})
	for _, c := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"borgesd_fleet_fetch_full_total", "Full artifact downloads completed and verified.", &r.fullFetches},
		{"borgesd_fleet_fetch_delta_total", "Incremental delta syncs completed and verified.", &r.deltaFetches},
		{"borgesd_fleet_delta_fallbacks_total", "Delta syncs abandoned for a full fetch.", &r.deltaFallbacks},
		{"borgesd_fleet_corrupt_rejected_total", "Downloads rejected by content verification before any swap.", &r.corruptRejected},
		{"borgesd_fleet_resumed_fetches_total", "Artifact downloads resumed with a ranged request.", &r.resumedFetches},
		{"borgesd_fleet_watch_reconnects_total", "Reconnects of the distributor watch stream.", &r.watchReconnects},
		{"borgesd_fleet_heartbeat_errors_total", "Heartbeats that failed to reach the distributor.", &r.heartbeatErrs},
		{"borgesd_fleet_lastgood_quarantined_total", "Corrupt last-good artifacts moved aside by the scrubber.", &r.lastGoodQuarantined},
		{"borgesd_fleet_lastgood_repairs_total", "Last-good artifacts rebuilt from the distributor after quarantine.", &r.lastGoodRepairs},
	} {
		reg.Counter(c.name, c.help, obs.Int64(c.v))
	}
}
