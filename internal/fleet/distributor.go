package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/nu-aqualab/borges/internal/mapdiff"
	"github.com/nu-aqualab/borges/internal/obs"
	"github.com/nu-aqualab/borges/internal/serve"
)

// Distributor route paths. The snapshot and delta URLs advertised in
// the manifest carry the version as a query parameter so a fetch can
// never observe bytes of a different version than it asked for.
const (
	PathManifest  = "/fleet/manifest"
	PathSnapshot  = "/fleet/snapshot"
	PathDelta     = "/fleet/delta"
	PathStatus    = "/fleet/status"
	PathHeartbeat = "/fleet/heartbeat"
)

// DistributorOptions tune a Distributor.
type DistributorOptions struct {
	// ReplicaTTL is how long a replica stays listed in /fleet/status
	// after its last heartbeat (default 30s). Expiry happens at read
	// time; a replica that heartbeats again simply reappears.
	ReplicaTTL time.Duration
	// Logger receives one record per publish. Nil logs nothing.
	Logger *slog.Logger
	// now overrides the clock in tests.
	now func() time.Time
}

// Distributor wraps a serve.Server with the fleet distribution
// surface. Every snapshot swap on the underlying server republishes
// the artifact automatically (wired through serve.Options.OnSwap), so
// the ordinary reload story — /admin/reload, delta reloads, pipeline
// reloads — is also the fleet publish story.
type Distributor struct {
	srv  *serve.Server
	opts DistributorOptions

	mu          sync.Mutex
	seq         uint64
	hash        string
	artifact    []byte // current snapbin artifact, served with Range support
	publishedAt time.Time
	delta       []byte // JSONL delta deltaBase→hash, nil when none
	deltaBase   string
	prev        *serve.Snapshot // previous publish, for delta computation
	replicas    map[string]replicaReport
}

// replicaReport is one replica's last heartbeat plus when it arrived.
type replicaReport struct {
	hb   Heartbeat
	seen time.Time
}

// NewDistributor builds the serve.Server itself (so it can hook OnSwap
// into serveOpts), registers its borgesd_fleet_* families on the
// server's registry, and publishes the initial snapshot as sequence 1.
// A caller that supplied its own OnSwap keeps it — the distributor
// chains, never replaces.
func NewDistributor(snap *serve.Snapshot, serveOpts serve.Options, opts DistributorOptions) (*Distributor, error) {
	if opts.ReplicaTTL <= 0 {
		opts.ReplicaTTL = 30 * time.Second
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	opts.Logger = obs.OrDiscard(opts.Logger)
	d := &Distributor{opts: opts, replicas: make(map[string]replicaReport)}
	innerSwap := serveOpts.OnSwap
	serveOpts.OnSwap = func(s *serve.Snapshot) {
		if innerSwap != nil {
			innerSwap(s)
		}
		if err := d.publish(s); err != nil {
			d.opts.Logger.Info("fleet_publish", "ok", false, "error", err)
		}
	}
	srv, err := serve.NewServer(snap, serveOpts)
	if err != nil {
		return nil, err
	}
	d.srv = srv
	d.register(srv.Registry())
	if err := d.publish(snap); err != nil {
		return nil, fmt.Errorf("fleet: publishing initial snapshot: %w", err)
	}
	return d, nil
}

// Server returns the underlying lookup server.
func (d *Distributor) Server() *serve.Server { return d.srv }

// publish encodes next as a snapbin artifact and makes it the current
// version. A snapshot whose content hash matches the current publish
// is skipped — republishing identical content would only churn replica
// fetches. Called with the server's reload latch held (via OnSwap), so
// publishes are serialized and sequence order matches swap order.
func (d *Distributor) publish(next *serve.Snapshot) error {
	var buf bytes.Buffer
	hash, err := serve.WriteSnapshot(&buf, next)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if hash == d.hash {
		return nil
	}
	d.delta, d.deltaBase = nil, ""
	if d.prev != nil {
		delta := mapdiff.Diff(d.prev, next)
		if !delta.Empty() {
			var db bytes.Buffer
			if err := mapdiff.WriteDelta(&db, delta); err != nil {
				return err
			}
			d.delta, d.deltaBase = db.Bytes(), d.hash
		}
	}
	d.seq++
	d.hash = hash
	d.artifact = buf.Bytes()
	d.publishedAt = d.opts.now()
	d.prev = next
	d.opts.Logger.Info("fleet_publish", "ok", true, "seq", d.seq, "hash", d.hash,
		"bytes", len(d.artifact), "delta_bytes", len(d.delta))
	return nil
}

// Manifest returns the current manifest.
func (d *Distributor) Manifest() Manifest {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.manifestLocked()
}

func (d *Distributor) manifestLocked() Manifest {
	m := Manifest{
		Seq:         d.seq,
		ContentHash: d.hash,
		Size:        int64(len(d.artifact)),
		SnapshotURL: PathSnapshot + "?hash=" + d.hash,
	}
	if d.delta != nil {
		m.Delta = &DeltaInfo{
			BaseHash: d.deltaBase,
			URL:      PathDelta + "?base=" + d.deltaBase,
			Size:     int64(len(d.delta)),
		}
	}
	return m
}

// Handler returns the distributor's HTTP handler: the /fleet/* surface
// mounted in front of the lookup server's own routes.
func (d *Distributor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathManifest, d.handleManifest)
	mux.HandleFunc("GET "+PathSnapshot, d.handleSnapshot)
	mux.HandleFunc("GET "+PathDelta, d.handleDelta)
	mux.HandleFunc("GET "+PathStatus, d.handleStatus)
	mux.HandleFunc("POST "+PathHeartbeat, d.handleHeartbeat)
	mux.Handle("/", d.srv.Handler())
	return mux
}

// Serve listens on addr and serves the distributor surface plus the
// lookup API until ctx is cancelled, with the lookup server's graceful
// shutdown discipline.
func (d *Distributor) Serve(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return d.ServeListener(ctx, ln)
}

// ServeListener serves on an existing listener until ctx is cancelled.
func (d *Distributor) ServeListener(ctx context.Context, ln net.Listener) error {
	return d.srv.ServeHandler(ctx, ln, d.Handler())
}

func (d *Distributor) handleManifest(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	m := d.manifestLocked()
	d.mu.Unlock()
	fleetJSON(w, http.StatusOK, m)
}

func (d *Distributor) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	hash, artifact, at := d.hash, d.artifact, d.publishedAt
	d.mu.Unlock()
	if want := r.URL.Query().Get("hash"); want != "" && want != hash {
		// The version the replica is (possibly mid-resume) fetching has
		// been superseded. 410 tells it to refetch the manifest rather
		// than splice bytes of two different artifacts.
		fleetJSON(w, http.StatusGone, map[string]string{
			"error": "snapshot " + want + " superseded", "current": hash,
		})
		return
	}
	w.Header().Set("ETag", `"`+hash+`"`)
	w.Header().Set("Content-Type", "application/octet-stream")
	// ServeContent supplies Range/If-Range handling for free over the
	// in-memory artifact — resumable downloads with zero extra state.
	http.ServeContent(w, r, "snapshot.snapbin", at, bytes.NewReader(artifact))
}

func (d *Distributor) handleDelta(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	delta, base, at := d.delta, d.deltaBase, d.publishedAt
	d.mu.Unlock()
	want := r.URL.Query().Get("base")
	if delta == nil || (want != "" && want != base) {
		fleetJSON(w, http.StatusGone, map[string]string{
			"error": "no delta from base " + want,
		})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	http.ServeContent(w, r, "delta.jsonl", at, bytes.NewReader(delta))
}

// handleHeartbeat records one replica report and answers with the
// current manifest, so every heartbeat doubles as a change
// notification: a replica learns about a new publish at latest one
// heartbeat interval after it happens, even if its watch stream and
// polls are down.
func (d *Distributor) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		fleetJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	hb, err := ParseHeartbeat(body)
	if err != nil {
		fleetJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	d.mu.Lock()
	d.replicas[hb.ID] = replicaReport{hb: *hb, seen: d.opts.now()}
	m := d.manifestLocked()
	d.mu.Unlock()
	fleetJSON(w, http.StatusOK, m)
}

// StatusReplica is one replica's row in /fleet/status.
type StatusReplica struct {
	ID          string  `json:"id"`
	Seq         uint64  `json:"seq"`
	ContentHash string  `json:"content_hash"`
	Addr        string  `json:"addr,omitempty"`
	AgeSeconds  float64 `json:"age_seconds"`
	// Divergent flags a replica serving a different content hash than
	// the distributor's current publish.
	Divergent bool `json:"divergent"`
}

// Status is the /fleet/status body: the current publish plus every
// live replica's last-known version.
type Status struct {
	Seq         uint64          `json:"seq"`
	ContentHash string          `json:"content_hash"`
	Replicas    []StatusReplica `json:"replicas"`
	Divergent   int             `json:"divergent"`
}

// Status computes the current fleet view, expiring replicas whose last
// heartbeat is older than ReplicaTTL.
func (d *Distributor) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.opts.now()
	st := Status{Seq: d.seq, ContentHash: d.hash, Replicas: []StatusReplica{}}
	for id, rep := range d.replicas {
		age := now.Sub(rep.seen)
		if age > d.opts.ReplicaTTL {
			delete(d.replicas, id)
			continue
		}
		row := StatusReplica{
			ID:          rep.hb.ID,
			Seq:         rep.hb.Seq,
			ContentHash: rep.hb.ContentHash,
			Addr:        rep.hb.Addr,
			AgeSeconds:  age.Seconds(),
			Divergent:   rep.hb.ContentHash != d.hash,
		}
		if row.Divergent {
			st.Divergent++
		}
		st.Replicas = append(st.Replicas, row)
	}
	sort.Slice(st.Replicas, func(i, j int) bool { return st.Replicas[i].ID < st.Replicas[j].ID })
	return st
}

func (d *Distributor) handleStatus(w http.ResponseWriter, r *http.Request) {
	fleetJSON(w, http.StatusOK, d.Status())
}

// register declares the distributor's borgesd_fleet_* families.
func (d *Distributor) register(reg *obs.Registry) {
	reg.Gauge("borgesd_fleet_publish_seq", "Sequence number of the current snapshot publish.", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(d.seq)
	})
	reg.Gauge("borgesd_fleet_last_publish_age_seconds", "Seconds since the current snapshot was published.", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.opts.now().Sub(d.publishedAt).Seconds()
	})
	reg.Gauge("borgesd_fleet_replicas", "Replicas with a live heartbeat.", func() float64 {
		return float64(len(d.Status().Replicas))
	})
	reg.Gauge("borgesd_fleet_replicas_divergent", "Live replicas serving a different content hash than the current publish.", func() float64 {
		return float64(d.Status().Divergent)
	})
}

// fleetJSON writes one JSON response body.
func fleetJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
