package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/vfs"
)

// newTestRing builds a generation ring in a fresh temp dir.
func newTestRing(t *testing.T, keep int) *GenerationRing {
	t.Helper()
	ring, err := NewGenerationRing(t.TempDir(), keep, vfs.OS, nil)
	if err != nil {
		t.Fatalf("NewGenerationRing: %v", err)
	}
	return ring
}

// TestGenerationRingRecordAndPrune: Record persists verified artifacts
// with monotonically increasing sequence numbers, no-ops on an
// unchanged head, and prunes beyond keep — oldest first, files removed
// from disk.
func TestGenerationRingRecordAndPrune(t *testing.T) {
	ring := newTestRing(t, 2)
	now := time.Unix(1700000000, 0).UTC()

	snaps := []*Snapshot{
		mustSnapshot(t, variantMapping(0, 128)),
		mustSnapshot(t, variantMapping(1, 128)),
		mustSnapshot(t, variantMapping(2, 128)),
	}
	for _, s := range snaps {
		if _, err := ring.Record(s, now); err != nil {
			t.Fatalf("Record: %v", err)
		}
	}
	// Re-recording the current head is a no-op, not a new generation.
	if _, err := ring.Record(snaps[2], now); err != nil {
		t.Fatalf("Record(head again): %v", err)
	}

	gens := ring.Generations()
	if len(gens) != 2 {
		t.Fatalf("ring holds %d generations, want 2 (keep)", len(gens))
	}
	if gens[0].Seq >= gens[1].Seq {
		t.Fatalf("generations out of order: %d then %d", gens[0].Seq, gens[1].Seq)
	}
	if gens[0].Hash != snaps[1].ContentHash() || gens[1].Hash != snaps[2].ContentHash() {
		t.Fatal("ring kept the wrong generations after pruning")
	}
	entries, err := os.ReadDir(ring.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d files on disk, want 2 after prune", len(entries))
	}
	// A recorded hash previous to the head is reachable and verified.
	prev, gen, err := ring.PreviousVerified(snaps[2].ContentHash())
	if err != nil {
		t.Fatalf("PreviousVerified: %v", err)
	}
	if prev.ContentHash() != snaps[1].ContentHash() || gen.Hash != snaps[1].ContentHash() {
		t.Fatalf("PreviousVerified = %s, want %s", gen.Hash, snaps[1].ContentHash())
	}
}

// TestGenerationRingStartupRescan: a new ring over an existing
// directory re-verifies every artifact, adopts the intact ones with
// their original sequence numbers, and quarantines the corrupt one.
func TestGenerationRingStartupRescan(t *testing.T) {
	dir := t.TempDir()
	ring, err := NewGenerationRing(dir, 4, vfs.OS, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0).UTC()
	for v := 0; v < 3; v++ {
		if _, err := ring.Record(mustSnapshot(t, variantMapping(v, 128)), now); err != nil {
			t.Fatal(err)
		}
	}
	gens := ring.Generations()
	// Corrupt the middle generation on disk (a byte well past the
	// provenance section, so the content hash no longer matches).
	victim := filepath.Join(dir, gens[1].File)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reborn, err := NewGenerationRing(dir, 4, vfs.OS, nil)
	if err != nil {
		t.Fatalf("rescan: %v", err)
	}
	got := reborn.Generations()
	if len(got) != 2 {
		t.Fatalf("rescan adopted %d generations, want 2", len(got))
	}
	if got[0].Seq != gens[0].Seq || got[1].Seq != gens[2].Seq {
		t.Fatalf("rescan seqs = %d,%d want %d,%d", got[0].Seq, got[1].Seq, gens[0].Seq, gens[2].Seq)
	}
	if n := reborn.QuarantinedTotal(); n != 1 {
		t.Fatalf("QuarantinedTotal = %d, want 1", n)
	}
	if _, err := os.Stat(victim + ".corrupt"); err != nil {
		t.Fatalf("corrupt artifact not moved aside: %v", err)
	}
	// The next Record continues the sequence past everything seen.
	if _, err := reborn.Record(mustSnapshot(t, variantMapping(7, 128)), now); err != nil {
		t.Fatal(err)
	}
	latest := reborn.Generations()
	if last := latest[len(latest)-1].Seq; last <= gens[2].Seq {
		t.Fatalf("new seq %d does not continue past %d", last, gens[2].Seq)
	}
}

// TestGenerationRingPreviousVerifiedSkipsCorrupt: rollback target
// selection re-verifies candidates and quarantines the ones that fail,
// falling further back instead of serving damage.
func TestGenerationRingPreviousVerifiedSkipsCorrupt(t *testing.T) {
	ring := newTestRing(t, 4)
	now := time.Unix(1700000000, 0).UTC()
	var hashes []string
	for v := 0; v < 3; v++ {
		s := mustSnapshot(t, variantMapping(v, 128))
		hashes = append(hashes, s.ContentHash())
		if _, err := ring.Record(s, now); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the middle generation; rollback from head should then
	// land on the oldest.
	gens := ring.Generations()
	victim := filepath.Join(ring.Dir(), gens[1].File)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	snap, gen, err := ring.PreviousVerified(hashes[2])
	if err != nil {
		t.Fatalf("PreviousVerified: %v", err)
	}
	if snap.ContentHash() != hashes[0] || gen.Hash != hashes[0] {
		t.Fatalf("fell back to %s, want oldest %s", gen.Hash, hashes[0])
	}
	if n := ring.QuarantinedTotal(); n != 1 {
		t.Fatalf("QuarantinedTotal = %d, want 1", n)
	}
	// Corrupt the newest generation as well: rolling back from the
	// oldest now has nowhere verified to land.
	gens = ring.Generations()
	newest := filepath.Join(ring.Dir(), gens[len(gens)-1].File)
	data, err = os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ring.PreviousVerified(hashes[0]); !errors.Is(err, ErrNoVerifiedGeneration) {
		t.Fatalf("err = %v, want ErrNoVerifiedGeneration", err)
	}
	if n := ring.QuarantinedTotal(); n != 2 {
		t.Fatalf("QuarantinedTotal = %d, want 2", n)
	}
}

// TestRollbackEndpoint: POST /admin/rollback swaps back to the newest
// verified generation, reports it, counts the admin trigger, and shows
// lineage in /v1/stats; a second rollback from a one-deep ring is 409.
func TestRollbackEndpoint(t *testing.T) {
	ring := newTestRing(t, 3)
	v1 := mustSnapshot(t, variantMapping(1, 128))
	v2 := mustSnapshot(t, variantMapping(2, 128))
	srv, err := NewServer(v1, Options{
		Generations: ring,
		Prepared: func(ctx context.Context) (*Snapshot, error) {
			return v2, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// Boot did not record anything; the first reload records v2... but
	// rollback needs v1 in the ring too, so record the boot snapshot
	// the way borgesd does.
	if _, err := ring.Record(v1, time.Unix(1700000000, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/admin/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: %d %s", rec.Code, rec.Body.String())
	}
	if srv.Snapshot().ContentHash() != v2.ContentHash() {
		t.Fatal("reload did not promote v2")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/admin/rollback", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("rollback: %d %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Status      string `json:"status"`
		ContentHash string `json:"content_hash"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "rolled-back" || resp.ContentHash != v1.ContentHash() {
		t.Fatalf("rollback response = %+v, want v1 %s", resp, v1.ContentHash())
	}
	if srv.Snapshot().ContentHash() != v1.ContentHash() {
		t.Fatal("serving snapshot is not v1 after rollback")
	}
	if n := srv.metrics.rollbacksAdmin.Load(); n != 1 {
		t.Fatalf(`Rollbacks("admin") = %d, want 1`, n)
	}

	// Lineage surfaces in stats: the rollback is a new generation, so
	// the ring now reads v1, v2, v1.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var stats struct {
		Lineage *lineageJSON `json:"lineage"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Lineage == nil {
		t.Fatal("stats missing lineage")
	}
	if len(stats.Lineage.Generations) != 3 {
		t.Fatalf("lineage has %d generations, want 3 (v1, v2, rollback-to-v1)", len(stats.Lineage.Generations))
	}
	if got := stats.Lineage.Generations[2].Hash; got != v1.ContentHash() {
		t.Fatalf("newest lineage hash = %s, want v1", got)
	}

	// Rolling back again: the only verified non-serving generation is
	// v2... which exists, so consume it, then the next attempt is 409.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/admin/rollback", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("second rollback: %d %s", rec.Code, rec.Body.String())
	}
	// Ring is now v2, v1, v2 (keep 3) — serving v2, previous is v1.
	// Drain by corrupting nothing; instead verify the no-target case on
	// a fresh one-generation server.
	lone := newTestRing(t, 3)
	srv2, err := NewServer(v1, Options{Generations: lone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lone.Record(v1, time.Unix(1700000000, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	srv2.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/admin/rollback", nil))
	if rec.Code != http.StatusConflict {
		t.Fatalf("rollback with no previous generation: %d, want 409", rec.Code)
	}
}

// TestRollbackWithoutRing: the endpoint is 501 when no generation ring
// is configured — rollback is an opt-in capability, not a default.
func TestRollbackWithoutRing(t *testing.T) {
	srv, err := NewServer(mustSnapshot(t, testMapping(t)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/admin/rollback", nil))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("rollback without ring: %d, want 501", rec.Code)
	}
}

// TestSwapRecordsGeneration: every successful swap lands in the ring
// and the metrics gauge follows, including the generations metric
// families in /metrics output.
func TestSwapRecordsGeneration(t *testing.T) {
	ring := newTestRing(t, 3)
	v1 := mustSnapshot(t, variantMapping(1, 128))
	v2 := mustSnapshot(t, variantMapping(2, 128))
	srv, err := NewServer(v1, Options{
		Generations: ring,
		Prepared: func(ctx context.Context) (*Snapshot, error) {
			return v2, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ring.Len() != 1 || ring.Generations()[0].Hash != v2.ContentHash() {
		t.Fatalf("ring after swap: %+v, want just v2", ring.Generations())
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"borgesd_snapshot_generations 1",
		"borgesd_generations_quarantined_total 0",
		"borgesd_canary_rejects_total 0",
		`borgesd_rollbacks_total{trigger="admin"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
