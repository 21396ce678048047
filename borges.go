// Package borges is the public API of Borges (Better ORGanizations
// Entities mappingS), a framework for improving AS-to-Organization
// mappings, reproducing:
//
//	Selmo, Carisimo, Bustamante, Alvarez-Hamelin.
//	"Learning AS-to-Organization Mappings with Borges", IMC 2025.
//
// Borges combines organization identifiers from WHOIS (CAIDA AS2Org)
// and PeeringDB with two learning-based signals: LLM-driven extraction
// of sibling ASNs from the unstructured PeeringDB notes/aka fields, and
// web-based inference over the websites networks self-report — redirect
// chains resolved to final URLs, domain similarity, and shared favicons
// classified by an LLM. Sibling sets from all features are consolidated
// transitively into one AS-to-Organization mapping, and mapping quality
// is quantified with the paper's Organization Factor (θ).
//
// # Quick start
//
//	ds, _ := borges.GenerateDataset(borges.DatasetConfig{Seed: 1, Scale: 0.05})
//	res, _ := borges.Run(context.Background(), borges.Inputs{
//		WHOIS:     ds.WHOIS,
//		PDB:       ds.PDB,
//		Transport: ds.Web,
//		Provider:  borges.NewSimulatedLLM(),
//	}, borges.Options{})
//	theta, _ := borges.Theta(res.Mapping)
//
// Real CAIDA AS2Org and PeeringDB snapshots parse with ParseWHOIS and
// ParsePeeringDB and drop into Inputs unchanged; pointing Provider at an
// OpenAI-compatible endpoint (NewOpenAIProvider) and Transport at the
// real internet (nil, which selects http.DefaultTransport) runs the
// paper's original configuration.
package borges

import (
	"context"
	"io"
	"log/slog"
	"net/http"

	"github.com/nu-aqualab/borges/internal/admission"
	"github.com/nu-aqualab/borges/internal/apnic"
	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/asrank"
	"github.com/nu-aqualab/borges/internal/baseline"
	"github.com/nu-aqualab/borges/internal/cache"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/core"
	"github.com/nu-aqualab/borges/internal/eval"
	"github.com/nu-aqualab/borges/internal/fleet"
	"github.com/nu-aqualab/borges/internal/llm"
	"github.com/nu-aqualab/borges/internal/llm/openai"
	"github.com/nu-aqualab/borges/internal/mapdiff"
	"github.com/nu-aqualab/borges/internal/orgfactor"
	"github.com/nu-aqualab/borges/internal/peeringdb"
	"github.com/nu-aqualab/borges/internal/serve"
	"github.com/nu-aqualab/borges/internal/simllm"
	"github.com/nu-aqualab/borges/internal/synth"
	"github.com/nu-aqualab/borges/internal/websim"
	"github.com/nu-aqualab/borges/internal/whois"
)

// Core identifier and result types.
type (
	// ASN is a 32-bit Autonomous System Number.
	ASN = asnum.ASN
	// Mapping is a consolidated AS-to-Organization mapping.
	Mapping = cluster.Mapping
	// Cluster is one organization in a Mapping.
	Cluster = cluster.Cluster
	// SiblingSet is one inferred group of sibling ASNs with provenance.
	SiblingSet = cluster.SiblingSet
	// Feature identifies the inference feature that produced a sibling
	// set (OID_W, OID_P, N&A, R&R, F).
	Feature = cluster.Feature

	// Features toggles the Borges pipeline features.
	Features = core.Features
	// Inputs are the pipeline's data sources and backends.
	Inputs = core.Inputs
	// Options tune the pipeline: features, crawl and LLM settings,
	// the cache, retries and circuit breakers. Consolidation has no
	// options: one builder merges each sibling set as it arrives.
	Options = core.Options
	// Result is a pipeline run's output: the mapping plus retained
	// artifacts and corpus statistics.
	Result = core.Result

	// RunReport is a run's machine-readable fault accounting: per-source
	// status, quarantined items, retries spent, breaker trips.
	RunReport = core.RunReport
	// SourceReport summarizes one inference chain's health within a
	// RunReport.
	SourceReport = core.SourceReport
	// QuarantinedItem is one unit of work a run dropped after a
	// transient fault exhausted its retry budget.
	QuarantinedItem = core.QuarantinedItem
)

// ParseASN parses "AS3356", "asn 3356", or bare digits.
func ParseASN(s string) (ASN, error) { return asnum.Parse(s) }

// Data sources.
type (
	// WHOISSnapshot is a CAIDA AS2Org snapshot (the OID_W source).
	WHOISSnapshot = whois.Snapshot
	// WHOISOrg is one WHOIS organization record.
	WHOISOrg = whois.Org
	// WHOISASRecord links an ASN to its WHOIS organization.
	WHOISASRecord = whois.ASRecord
	// PDBSnapshot is a PeeringDB snapshot (the OID_P, notes/aka, and
	// website source).
	PDBSnapshot = peeringdb.Snapshot
	// PDBOrg is a PeeringDB organization object.
	PDBOrg = peeringdb.Org
	// PDBNet is a PeeringDB network object.
	PDBNet = peeringdb.Net
	// APNICTable holds per-AS user-population estimates.
	APNICTable = apnic.Table
	// APNICRecord is one (ASN, country) population estimate.
	APNICRecord = apnic.Record
	// ASRanking is a CAIDA AS-Rank snapshot.
	ASRanking = asrank.Ranking
	// WebUniverse is a deterministic simulated web (an
	// http.RoundTripper) for offline runs and tests.
	WebUniverse = websim.Universe
)

// NewWHOISSnapshot returns an empty WHOIS snapshot for a date
// ("YYYYMMDD").
func NewWHOISSnapshot(date string) *WHOISSnapshot { return whois.NewSnapshot(date) }

// ParseWHOIS reads a CAIDA AS2Org JSON-lines stream.
func ParseWHOIS(r io.Reader, date string) (*WHOISSnapshot, error) { return whois.Parse(r, date) }

// WriteWHOIS serializes a WHOIS snapshot in CAIDA AS2Org form.
func WriteWHOIS(w io.Writer, s *WHOISSnapshot) error { return whois.Write(w, s) }

// NewPDBSnapshot returns an empty PeeringDB snapshot for a date.
func NewPDBSnapshot(date string) *PDBSnapshot { return peeringdb.NewSnapshot(date) }

// ParsePeeringDB reads a PeeringDB API dump.
func ParsePeeringDB(r io.Reader, date string) (*PDBSnapshot, error) { return peeringdb.Parse(r, date) }

// WritePeeringDB serializes a PeeringDB snapshot as an API dump.
func WritePeeringDB(w io.Writer, s *PDBSnapshot) error { return peeringdb.Write(w, s) }

// ParseAPNIC reads the per-AS population CSV.
func ParseAPNIC(r io.Reader, date string) (*APNICTable, error) { return apnic.Parse(r, date) }

// WriteAPNIC serializes a population table as CSV.
func WriteAPNIC(w io.Writer, t *APNICTable) error { return apnic.Write(w, t) }

// ParseASRank reads an AS-Rank CSV.
func ParseASRank(r io.Reader, date string) (*ASRanking, error) { return asrank.Parse(r, date) }

// WriteASRank serializes an AS-Rank snapshot as CSV.
func WriteASRank(w io.Writer, r *ASRanking) error { return asrank.Write(w, r) }

// NewWebUniverse returns an empty simulated web.
func NewWebUniverse() *WebUniverse { return websim.New() }

// WriteWebUniverse serializes a simulated web as a JSON-lines manifest.
func WriteWebUniverse(w io.Writer, u *WebUniverse) error { return websim.WriteManifest(w, u) }

// ReadWebUniverse reconstructs a simulated web from a manifest.
func ReadWebUniverse(r io.Reader) (*WebUniverse, error) { return websim.ReadManifest(r) }

// LLM providers.
type (
	// LLMProvider generates chat completions for the learning-based
	// stages.
	LLMProvider = llm.Provider
	// LLMRequest is a chat-completion request.
	LLMRequest = llm.Request
	// LLMMessage is one chat turn (optionally with image attachments).
	LLMMessage = llm.Message
	// LLMResponse is a chat completion.
	LLMResponse = llm.Response
	// SimulatedLLM is the deterministic offline model.
	SimulatedLLM = simllm.Model
	// OpenAIProvider is a complete OpenAI-compatible HTTP client.
	OpenAIProvider = openai.Client
)

// Chat roles for LLMMessage.
const (
	RoleSystem    = llm.RoleSystem
	RoleUser      = llm.RoleUser
	RoleAssistant = llm.RoleAssistant
)

// NewSimulatedLLM returns the deterministic simulated model used for
// offline reproduction (same-input ⇒ same-output, like the paper's
// temperature-0 GPT-4o-mini configuration).
func NewSimulatedLLM() *SimulatedLLM { return simllm.NewModel() }

// LLMProfile parameterises a simulated model's capabilities — the
// alternative-model exploration the paper's conclusion proposes.
type LLMProfile = simllm.Profile

// Built-in simulated-model profiles.
var (
	// ProfileGPT4oMini is the paper's configuration.
	ProfileGPT4oMini = simllm.ProfileGPT4oMini
	// ProfileLlama models a mid-size open-weights model (English-only
	// cues, framework icons but no brand logos).
	ProfileLlama = simllm.ProfileLlama
	// ProfileSmall models a small distilled model (English-only, no
	// visual knowledge).
	ProfileSmall = simllm.ProfileSmall
)

// NewSimulatedLLMWithProfile returns a simulated model with the given
// capability profile.
func NewSimulatedLLMWithProfile(p LLMProfile) *SimulatedLLM {
	return simllm.NewModelWithProfile(p)
}

// NewOpenAIProvider returns a chat-completions client for an
// OpenAI-compatible endpoint. An empty baseURL selects the public
// OpenAI API. The client does not retry: Run retries every completion
// under Options.MaxRetries, its retry budget and its breakers.
func NewOpenAIProvider(baseURL, apiKey string, httpClient *http.Client) LLMProvider {
	return &openai.Client{BaseURL: baseURL, APIKey: apiKey, HTTPClient: httpClient}
}

// NewCachingProvider memoizes a provider's completions: identical
// requests return the stored response without touching the backend.
// Temperature-0 determinism (the paper's configuration) makes this
// loss-free; incremental re-runs over updated snapshots only pay for
// records whose text changed. The responses live in a memory-only
// Cache, so its LRU (DefaultMaxEntries) is the memory tier: concurrent
// identical requests share one backend call, errors are never stored,
// and the provider's Cache.Stats counts hits and misses.
func NewCachingProvider(inner LLMProvider) *cache.Provider {
	c, _ := cache.New(cache.Options{}) // fails only on opening a disk tier
	return &cache.Provider{Inner: inner, Cache: c}
}

// NewRateLimitedProvider paces a provider below a requests-per-second
// budget with the given burst capacity, for batch runs against live
// APIs with per-minute quotas.
func NewRateLimitedProvider(inner LLMProvider, rps float64, burst int) LLMProvider {
	return &llm.RateLimited{Inner: inner, RPS: rps, Burst: burst}
}

// Content-addressed pipeline cache types.
type (
	// Cache is a content-addressed store memoizing LLM completions and
	// crawl outcomes across runs. Pass one via Options.Cache; a single
	// Cache may be shared by concurrent runs (an ablation grid, a
	// borgesd reload loop) and deduplicates identical in-flight work.
	Cache = cache.Cache
	// CacheOptions configure a Cache (memory bound, optional disk
	// directory whose contents survive process restarts).
	CacheOptions = cache.Options
	// CacheStats are a Cache's hit/miss/dedup counters.
	CacheStats = cache.Stats
)

// NewCache opens a content-addressed cache. With a zero CacheOptions
// it is memory-only; set Dir to persist entries across processes.
// Close flushes the disk tier; callers owning a disk-backed Cache
// should defer it.
func NewCache(opts CacheOptions) (*Cache, error) { return cache.New(opts) }

// Run executes the Borges pipeline.
func Run(ctx context.Context, in Inputs, opts Options) (*Result, error) {
	return core.Run(ctx, in, opts)
}

// AllFeatures returns the full Borges feature configuration.
func AllFeatures() Features { return core.AllFeatures() }

// Baselines.

// AS2Org builds the classic WHOIS-only mapping of Cai et al.
func AS2Org(w *WHOISSnapshot) *Mapping { return baseline.AS2Org(w) }

// AS2OrgPlus builds the as2org+ mapping (Arturi et al.) in the paper's
// fully automated benchmark configuration (OID_W + OID_P).
func AS2OrgPlus(w *WHOISSnapshot, p *PDBSnapshot) *Mapping {
	return baseline.AS2OrgPlus(w, p, baseline.Config{})
}

// WriteMapping serializes a mapping as JSON lines (one organization per
// line with members, name, and feature provenance).
func WriteMapping(w io.Writer, m *Mapping) error { return cluster.WriteJSONL(w, m) }

// ReadMapping parses a mapping written with WriteMapping.
func ReadMapping(r io.Reader) (*Mapping, error) { return cluster.ReadJSONL(r) }

// Theta computes the normalised Organization Factor of a mapping
// (§5.4; 0 = every organization manages one network, → 1 = one
// organization manages everything).
func Theta(m *Mapping) (float64, error) { return orgfactor.Theta(m) }

// Serving layer.
type (
	// Snapshot is an immutable, pre-indexed view of a Mapping (ASN
	// lookup, name search, θ, size histogram) safe for lock-free
	// concurrent reads; lookup responses are rendered from it per
	// request. Construction is deterministic: a snapshot of one mapping
	// has one content hash, whether built, loaded or patched by a delta.
	Snapshot = serve.Snapshot
	// SnapshotStats are a snapshot's precomputed corpus statistics.
	SnapshotStats = serve.Stats
	// PreparedSnapshotSource delivers ready-made snapshots — decoded
	// binary artifacts, snapshots built from a mapping file or a
	// pipeline run — and is the only way a full hot reload gets its
	// next snapshot (ServeOptions.Prepared). The snapshot carries its
	// own label and health.
	PreparedSnapshotSource = serve.PreparedSource
	// MappingDeltaSource supplies mapping deltas for incremental
	// (mode=delta) reloads.
	MappingDeltaSource = serve.DeltaSource
	// SnapshotHealth describes the provenance quality of a snapshot's
	// mapping ("ok" vs "degraded"), surfaced by /healthz, /v1/stats,
	// and /metrics.
	SnapshotHealth = serve.Health
	// ServeOptions tune a lookup server (the Prepared source of full
	// reloads and the DeltaSource of delta reloads, per-request
	// timeout, structured logging, overload protection, persistence
	// and scrubbing).
	ServeOptions = serve.Options
	// LookupServer serves a Snapshot over HTTP with atomic hot reload.
	LookupServer = serve.Server
	// AdmissionConfig tunes a lookup server's overload protection:
	// an adaptive (AIMD-on-latency) concurrency limit with a bounded
	// wait queue, per-client token-bucket rate limiting behind an LRU,
	// priority shedding (health/metrics/admin never shed, point
	// lookups shed last, search sheds first), and search brownout.
	// Set ServeOptions.Admission to enable; sheds answer 429/503 with
	// Retry-After and are observable as borgesd_admission_* metrics.
	AdmissionConfig = admission.Config
	// AdmissionStats is a point-in-time view of the admission layer:
	// in-flight count, adaptive limit, queue depth, sheds by class,
	// rate-limit refusals, bucket evictions, brownouts.
	AdmissionStats = admission.Stats
	// WatchEvent is one /v1/watch stream event: a snapshot swap
	// described by its sequence number, the new snapshot's identity
	// (load mode, content hash, org/ASN counts), and the MappingDelta
	// edit script that produced it.
	WatchEvent = serve.WatchEvent
)

// Snapshot health status values.
const (
	SnapshotHealthOK       = serve.HealthOK
	SnapshotHealthDegraded = serve.HealthDegraded
)

// NewSnapshot indexes a mapping for serving; source labels its origin
// in /v1/stats and /metrics. Nil or empty mappings are rejected.
func NewSnapshot(m *Mapping, source string) (*Snapshot, error) {
	return serve.NewSnapshot(m, source)
}

// NewSnapshotWithHealth is NewSnapshot carrying the producing run's
// health, for pipeline-backed daemons.
func NewSnapshotWithHealth(m *Mapping, source string, h SnapshotHealth) (*Snapshot, error) {
	return serve.NewSnapshotWithHealth(m, source, h)
}

// HealthFromReport folds a pipeline RunReport into a serving health: a
// clean run maps to SnapshotHealthOK, a degraded one to
// SnapshotHealthDegraded with the quarantine count and the degraded
// sources named. A nil report (e.g. a mapping loaded from a file) is
// healthy — absence of provenance is not evidence of faults.
func HealthFromReport(rep *RunReport) SnapshotHealth {
	if rep == nil || !rep.Degraded() {
		return SnapshotHealth{Status: SnapshotHealthOK}
	}
	detail := ""
	for _, s := range rep.Sources {
		if s.Status == core.StatusDegraded || s.Status == core.StatusFailed {
			if detail != "" {
				detail += ", "
			}
			detail += s.Name + " " + s.Status
		}
	}
	return SnapshotHealth{
		Status:      SnapshotHealthDegraded,
		Quarantined: len(rep.Quarantined),
		Detail:      detail,
	}
}

// NewLookupServer returns an HTTP server over an initial snapshot. Use
// its Handler with any http mux/listener, or call Serve for the
// one-call daemon path.
func NewLookupServer(snap *Snapshot, opts ServeOptions) (*LookupServer, error) {
	return serve.NewServer(snap, opts)
}

// SnapshotFileSource reloads snapshots from a file of either format,
// sniffed on every call: a snapbin binary artifact (detected by magic,
// loaded in milliseconds) or a mapping written with WriteMapping
// (borges -format jsonl), parsed and indexed from scratch and labelled
// with the path.
func SnapshotFileSource(path string) PreparedSnapshotSource { return serve.SnapshotFileSource(path) }

// MappingDeltaFileSource reloads mapping deltas from a JSONL delta
// file written with WriteMappingDelta (borges-diff -delta).
func MappingDeltaFileSource(path string) MappingDeltaSource { return serve.DeltaFileSource(path) }

// WriteSnapshot encodes a snapshot as a versioned binary artifact
// (magic "BORGSNAP") and returns its content hash: a SHA-256 over the
// snapshot's logical content, identical across machines, build times,
// and full-vs-delta construction paths.
func WriteSnapshot(w io.Writer, s *Snapshot) (string, error) { return serve.WriteSnapshot(w, s) }

// WriteSnapshotFile atomically persists a snapshot as a binary
// artifact (temp file, fsync, rename) and returns its content hash.
func WriteSnapshotFile(path string, s *Snapshot) (string, error) {
	return serve.WriteSnapshotFile(path, s)
}

// LoadSnapshot decodes a binary snapshot artifact into a serving
// snapshot — a few large reads plus verification, no JSONL parse, no
// union-find replay.
func LoadSnapshot(r io.Reader) (*Snapshot, error) { return serve.LoadSnapshot(r) }

// LoadSnapshotFile decodes the binary snapshot artifact at path.
func LoadSnapshotFile(path string) (*Snapshot, error) { return serve.LoadSnapshotFile(path) }

// Storage integrity layer: generation ring, canary-gated swaps, and
// background scrubbing.
type (
	// GenerationRing keeps the last N verified snapshot artifacts on
	// disk so every swap is reversible (POST /admin/rollback, automatic
	// rollback after a failed health probe). Nothing in the ring serves
	// without a full decode re-verifying its content hash.
	GenerationRing = serve.GenerationRing
	// SnapshotGeneration describes one verified artifact in the ring,
	// as surfaced by /v1/stats lineage.
	SnapshotGeneration = serve.Generation
	// CanaryConfig tunes the pre-swap canary: a deterministic sample of
	// lookups and searches replayed against every candidate snapshot
	// before it can serve. The zero value is on with defaults; set
	// Disable to promote unchecked.
	CanaryConfig = serve.CanaryConfig
	// ScrubTarget is one store the background scrubber sweeps.
	ScrubTarget = serve.ScrubTarget
	// ScrubResult is one target's outcome for a single scrub pass.
	ScrubResult = serve.ScrubResult
	// ScrubSummary aggregates a full scrub cycle: totals, the health
	// probe outcome, and any automatic rollback it triggered.
	ScrubSummary = serve.ScrubSummary
)

// Storage integrity sentinel errors.
var (
	// ErrCanaryRejected: a candidate snapshot failed the pre-swap
	// canary and was refused (HTTP 422 on /admin/reload).
	ErrCanaryRejected = serve.ErrCanaryRejected
	// ErrNoVerifiedGeneration: a rollback found no on-disk generation
	// other than the serving one that decodes and verifies.
	ErrNoVerifiedGeneration = serve.ErrNoVerifiedGeneration
)

// NewGenerationRing opens (creating if needed) a generation ring
// directory and adopts every artifact in it that still decodes and
// verifies; corrupt files are quarantined immediately. Set the result
// as ServeOptions.Generations; a nil log logs nothing.
func NewGenerationRing(dir string, keep int, log *slog.Logger) (*GenerationRing, error) {
	return serve.NewGenerationRing(dir, keep, nil, log)
}

// Serve listens on addr and serves the snapshot's JSON lookup API
// (/v1/as/{asn}, /v1/org/{id}, /v1/search, /v1/bulk, /v1/watch,
// /v1/stats, /admin/reload, /healthz, /metrics) until ctx is
// cancelled, then drains in-flight requests — ending /v1/watch
// streams cleanly first — and shuts down gracefully.
func Serve(ctx context.Context, addr string, snap *Snapshot, opts ServeOptions) error {
	return serve.Serve(ctx, addr, snap, opts)
}

// Fleet distribution layer: one distributor publishing versioned
// binary snapshot artifacts, many verifying replicas following it.
type (
	// FleetDistributor wraps a LookupServer with the /fleet/* surface:
	// a versioned snapshot manifest, ranged artifact and delta
	// downloads, and a consistency endpoint fed by replica heartbeats.
	// Every snapshot swap republishes automatically.
	FleetDistributor = fleet.Distributor
	// FleetDistributorOptions tune a FleetDistributor.
	FleetDistributorOptions = fleet.DistributorOptions
	// FleetReplica is a follower: a local lookup server whose
	// snapshots are fetched from a distributor, content-hash-verified
	// before they can serve, persisted locally as a last-good artifact
	// for crash recovery, and swapped in atomically.
	FleetReplica = fleet.Replica
	// FleetReplicaOptions tune a FleetReplica.
	FleetReplicaOptions = fleet.ReplicaOptions
	// FleetManifest describes a distributor's current publish:
	// sequence, content hash, size, artifact URL, optional delta.
	FleetManifest = fleet.Manifest
	// FleetHeartbeat is one replica's served-version report.
	FleetHeartbeat = fleet.Heartbeat
	// FleetStatus is the distributor's fleet consistency view: the
	// current publish plus each live replica's version and divergence.
	FleetStatus = fleet.Status
)

// NewFleetDistributor builds a lookup server wired for distribution
// and publishes snap as sequence 1. Serve it with its Serve or
// ServeListener methods; its Handler mounts /fleet/* in front of the
// lookup API.
func NewFleetDistributor(snap *Snapshot, serveOpts ServeOptions, opts FleetDistributorOptions) (*FleetDistributor, error) {
	return fleet.NewDistributor(snap, serveOpts, opts)
}

// NewFleetReplica joins a distributor: cold-start from the local
// last-good artifact when present (milliseconds, no network), a
// blocking verified fetch otherwise. Call Run to start the follower
// loop and Serve to expose the lookup API.
func NewFleetReplica(ctx context.Context, opts FleetReplicaOptions) (*FleetReplica, error) {
	return fleet.NewReplica(ctx, opts)
}

// ParseFleetManifest decodes and validates a /fleet/manifest body;
// malformed input yields a typed error, never a panic.
func ParseFleetManifest(data []byte) (*FleetManifest, error) { return fleet.ParseManifest(data) }

// ParseFleetHeartbeat decodes and validates a replica heartbeat body.
func ParseFleetHeartbeat(data []byte) (*FleetHeartbeat, error) { return fleet.ParseHeartbeat(data) }

// Synthetic corpus generation.
type (
	// DatasetConfig parameterises synthetic corpus generation.
	DatasetConfig = synth.Config
	// Dataset is a complete generated corpus with ground truth.
	Dataset = synth.Dataset
)

// GenerateDataset builds a seeded, deterministic synthetic corpus
// calibrated to the paper's July 2024 snapshot statistics. Scale 1.0 is
// paper scale; ~0.05 generates fast test corpora.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) { return synth.Generate(cfg) }

// Corpus scale bounds, re-exported so CLIs can validate a -scale flag
// with a clear message before committing to a multi-minute run.
// Scales outside this range are rejected by the generator itself (the
// ceiling keeps the synthetic ASN allocator far from the 32-bit ASN
// wrap); MaxDatasetScale targets roughly 120 million synthetic ASNs.
const (
	MinDatasetScale = synth.MinScale
	MaxDatasetScale = synth.MaxScale
)

// GenerateDatasetStream is the constant-memory form of GenerateDataset:
// the corpus is produced in deterministic chunks of roughly chunkUnits
// generator units each, and yield consumes and discards each chunk, so
// peak memory tracks the chunk size rather than the corpus size.
// Concatenating the chunks reproduces GenerateDataset's output exactly
// for the same config. chunkUnits <= 0 yields one final chunk; a
// non-nil yield error aborts generation and is returned.
func GenerateDatasetStream(cfg DatasetConfig, chunkUnits int, yield func(*Dataset) error) error {
	return synth.GenerateStream(cfg, chunkUnits, yield)
}

// CorpusStats summarizes a streamed corpus write.
type CorpusStats = synth.CorpusStats

// WriteDatasetStream generates the corpus for cfg and writes the five
// standard corpus files (as2org.jsonl, peeringdb.json, apnic.csv,
// asrank.csv, web.jsonl) into dir in constant memory: each chunk is
// appended to the outputs as it is produced. The files parse to the
// same snapshots GenerateDataset plus the buffered writers produce.
func WriteDatasetStream(dir string, cfg DatasetConfig, chunkUnits int) (CorpusStats, error) {
	return synth.WriteCorpusStream(dir, cfg, chunkUnits)
}

// Longitudinal analysis.
type (
	// MappingDiff summarises how organizations changed between two
	// mappings: merges, splits, reshuffles, arrivals, departures.
	MappingDiff = mapdiff.Report
	// MappingChange describes one organization's transition.
	MappingChange = mapdiff.Change
	// ChangeKind classifies a MappingChange.
	ChangeKind = mapdiff.ChangeKind
)

// Change kinds.
const (
	ChangeStable    = mapdiff.Stable
	ChangeMerge     = mapdiff.Merge
	ChangeSplit     = mapdiff.Split
	ChangeReshuffle = mapdiff.Reshuffle
	ChangeAppeared  = mapdiff.Appeared
	ChangeDeparted  = mapdiff.Departed
)

// CompareMappings analyses the transition from an older mapping to a
// newer one — across snapshots (the Figure 1 merger timelines) or
// across methods over one snapshot (Borges vs AS2Org).
func CompareMappings(older, newer *Mapping) *MappingDiff {
	return mapdiff.Compare(older, newer)
}

// MappingDelta is the machine-applicable edit script between two
// mappings: organizations to remove and organizations to add. Where a
// MappingDiff narrates a transition for humans, a MappingDelta drives
// incremental snapshot reloads (Snapshot.ApplyDelta,
// /admin/reload?mode=delta).
type MappingDelta = mapdiff.Delta

// ComputeMappingDelta returns the edit script transforming old into
// new; identity covers members, name, and feature provenance.
func ComputeMappingDelta(old, new *Mapping) *MappingDelta {
	return mapdiff.ComputeDelta(old, new)
}

// WriteMappingDelta serializes a delta as JSON lines (removals first:
// {"op":"del",...} then {"op":"add",...}).
func WriteMappingDelta(w io.Writer, d *MappingDelta) error { return mapdiff.WriteDelta(w, d) }

// ReadMappingDelta parses a delta written with WriteMappingDelta.
func ReadMappingDelta(r io.Reader) (*MappingDelta, error) { return mapdiff.ReadDelta(r) }

// Evaluation harness.
type (
	// Evaluation bundles a corpus with pipeline and baseline runs and
	// regenerates every table and figure of the paper.
	Evaluation = eval.Data
	// ResultTable is one rendered experiment result.
	ResultTable = eval.Table
)

// PrepareEvaluation runs the pipeline and both baselines over a corpus
// once; the individual experiments (Table3 … Figure9, or All) are then
// cheap to regenerate.
func PrepareEvaluation(ctx context.Context, ds *Dataset, provider LLMProvider) (*Evaluation, error) {
	return eval.Prepare(ctx, ds, provider)
}
