package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nu-aqualab/borges/internal/mapdiff"
)

// TestReloadModesHTTP drives the operator surface end to end: a full
// reload from a binary artifact, a delta reload from an edit-script
// file (including its 409 on re-application), the mode/hash fields on
// the reload response and /v1/stats, and the load gauges on /metrics.
func TestReloadModesHTTP(t *testing.T) {
	dir := t.TempDir()
	oldM := variantMapping(1, 40)
	newM := variantMapping(2, 40)

	binPath := filepath.Join(dir, "snapshot.bin")
	oldSnap := mustSnapshot(t, oldM)
	binHash, err := WriteSnapshotFile(binPath, oldSnap)
	if err != nil {
		t.Fatal(err)
	}
	deltaPath := filepath.Join(dir, "delta.jsonl")
	f, err := os.Create(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapdiff.WriteDelta(f, mapdiff.ComputeDelta(oldM, newM)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(oldSnap, Options{
		Prepared:    SnapshotFileSource(binPath),
		DeltaSource: DeltaFileSource(deltaPath),
	})
	if err != nil {
		t.Fatal(err)
	}

	var reloadResp struct {
		Status      string `json:"status"`
		Orgs        int    `json:"orgs"`
		LoadMode    string `json:"load_mode"`
		ContentHash string `json:"content_hash"`
	}
	rec := do(t, srv, "POST", "/admin/reload", &reloadResp)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload = %d body %s", rec.Code, rec.Body)
	}
	if reloadResp.LoadMode != LoadModeBinary || reloadResp.ContentHash != binHash {
		t.Fatalf("reload reported mode %q hash %q, want %q %q",
			reloadResp.LoadMode, reloadResp.ContentHash, LoadModeBinary, binHash)
	}

	var statsResp struct {
		Orgs        int    `json:"orgs"`
		LoadMode    string `json:"load_mode"`
		ContentHash string `json:"content_hash"`
	}
	if rec := do(t, srv, "GET", "/v1/stats", &statsResp); rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	if statsResp.LoadMode != LoadModeBinary || statsResp.ContentHash != binHash {
		t.Fatalf("stats reported mode %q hash %q", statsResp.LoadMode, statsResp.ContentHash)
	}

	rec = do(t, srv, "POST", "/admin/reload?mode=delta", &reloadResp)
	if rec.Code != http.StatusOK {
		t.Fatalf("delta reload = %d body %s", rec.Code, rec.Body)
	}
	if reloadResp.LoadMode != LoadModeDelta {
		t.Fatalf("delta reload reported mode %q", reloadResp.LoadMode)
	}
	wantHash := mustSnapshot(t, newM).ContentHash()
	if reloadResp.ContentHash != wantHash {
		t.Fatalf("delta reload hash %q, want from-scratch %q", reloadResp.ContentHash, wantHash)
	}

	// The same delta no longer applies: its removals name organizations
	// that are gone. The operator gets a conflict, not drift.
	if rec := do(t, srv, "POST", "/admin/reload?mode=delta", nil); rec.Code != http.StatusConflict {
		t.Fatalf("re-applied delta = %d, want %d (body %s)", rec.Code, http.StatusConflict, rec.Body)
	}
	// The serving snapshot is untouched by the failed reload.
	if srv.Snapshot().ContentHash() != wantHash {
		t.Fatal("failed delta reload disturbed the serving snapshot")
	}

	if rec := do(t, srv, "POST", "/admin/reload?mode=bogus", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus mode = %d, want 400", rec.Code)
	}

	rec = do(t, srv, "GET", "/metrics", nil)
	body := rec.Body.String()
	for _, want := range []string{
		`borgesd_snapshot_load_seconds{mode="delta"}`,
		`borgesd_snapshot_info{hash="` + wantHash + `",mode="` + LoadModeDelta + `"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestReloadModesUnconfigured: each mode answers 501 when its source
// is absent rather than 500 or a panic.
func TestReloadModesUnconfigured(t *testing.T) {
	srv := newTestServer(t, Options{})
	if rec := do(t, srv, "POST", "/admin/reload", nil); rec.Code != http.StatusNotImplemented {
		t.Fatalf("full reload without source = %d, want 501", rec.Code)
	}
	if rec := do(t, srv, "POST", "/admin/reload?mode=delta", nil); rec.Code != http.StatusNotImplemented {
		t.Fatalf("delta reload without source = %d, want 501", rec.Code)
	}
}

// TestPreparedSourceValidateThenSwap: a Prepared source that fails
// leaves the old snapshot serving.
func TestPreparedSourceValidateThenSwap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	snap := mustSnapshot(t, testMapping(t))
	if _, err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(snap, Options{Prepared: SnapshotFileSource(path)})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the artifact in place; the reload must fail closed.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := srv.Snapshot()
	if rec := do(t, srv, "POST", "/admin/reload", nil); rec.Code == http.StatusOK {
		t.Fatal("corrupted artifact reloaded successfully")
	}
	if srv.Snapshot() != before {
		t.Fatal("failed reload swapped the snapshot")
	}
	if c, ok := srv.Snapshot().Lookup(3356); !ok || c.Name != "Lumen Technologies" {
		t.Fatal("old snapshot no longer serving after failed reload")
	}
}
