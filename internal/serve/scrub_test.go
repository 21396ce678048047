package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/faultinject"
	"github.com/nu-aqualab/borges/internal/vfs"
)

// corruptFile flips one byte in the middle of the file at path — well
// past the unhashed provenance section, so integrity checks must trip.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScrubQuarantinesExactlyOnce: a corrupt generation is quarantined
// on the first scrub cycle and never re-counted — the .corrupt rename
// removes it from the ring, so later cycles see only intact artifacts.
func TestScrubQuarantinesExactlyOnce(t *testing.T) {
	ring := newTestRing(t, 3)
	now := time.Unix(1700000000, 0).UTC()
	for v := 0; v < 2; v++ {
		if _, err := ring.Record(mustSnapshot(t, variantMapping(v, 128)), now); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(mustSnapshot(t, variantMapping(1, 128)), Options{Generations: ring})
	if err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(ring.Dir(), ring.Generations()[0].File))

	sum := srv.ScrubOnce(context.Background())
	if sum.Quarantined != 1 {
		t.Fatalf("first cycle Quarantined = %d, want 1", sum.Quarantined)
	}
	if sum.ProbeErr != nil {
		t.Fatalf("probe failed on a healthy serving snapshot: %v", sum.ProbeErr)
	}
	sum = srv.ScrubOnce(context.Background())
	if sum.Quarantined != 0 {
		t.Fatalf("second cycle Quarantined = %d, want 0 (exactly-once)", sum.Quarantined)
	}
	checked, corrupt := srv.metrics.scrubChecked.Load(), srv.metrics.scrubCorrupt.Load()
	if corrupt != 1 {
		t.Fatalf("scrub corrupt total = %d, want 1", corrupt)
	}
	if checked == 0 {
		t.Fatal("scrub checked total is zero")
	}
}

// TestScrubRepairsSnapshotOut: a corrupt -snapshot-out artifact is
// quarantined and rewritten from the serving snapshot, leaving a
// loadable file for the next cold start.
func TestScrubRepairsSnapshotOut(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.snapbin")
	snap := mustSnapshot(t, variantMapping(1, 128))
	srv, err := NewServer(snap, Options{SnapshotOut: out})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshotFile(out, snap); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, out)

	sum := srv.ScrubOnce(context.Background())
	if sum.Quarantined != 1 || sum.Repaired != 1 {
		t.Fatalf("ScrubOnce = %+v, want 1 quarantined and 1 repaired", sum)
	}
	if _, err := os.Stat(out + ".corrupt"); err != nil {
		t.Fatalf("corrupt artifact not moved aside: %v", err)
	}
	reloaded, err := LoadSnapshotFile(out)
	if err != nil {
		t.Fatalf("repaired artifact does not load: %v", err)
	}
	if reloaded.ContentHash() != snap.ContentHash() {
		t.Fatal("repaired artifact does not match the serving snapshot")
	}
	// A missing snapshot-out is not corruption — nothing to count.
	if err := os.Remove(out); err != nil {
		t.Fatal(err)
	}
	if sum := srv.ScrubOnce(context.Background()); sum.Quarantined != 0 || sum.Repaired != 0 {
		t.Fatalf("missing file counted as corruption: %+v", sum)
	}
}

// TestScrubProbeFailureAutoRollback: a failed post-scrub health probe
// rolls the server back to the newest verified generation
// automatically, counting the auto trigger and the probe failure.
func TestScrubProbeFailureAutoRollback(t *testing.T) {
	ring := newTestRing(t, 3)
	v1 := mustSnapshot(t, variantMapping(1, 128))
	v2 := mustSnapshot(t, variantMapping(2, 128))
	bad := v2.ContentHash()
	srv, err := NewServer(v1, Options{
		Generations: ring,
		Prepared: func(ctx context.Context) (*Snapshot, error) {
			return v2, nil
		},
		// The probe models an external consistency check discovering
		// that v2, although it passed its promotion canary, is wrong.
		healthProbe: func(s *Snapshot) error {
			if s.ContentHash() == bad {
				return errors.New("probe: serving snapshot flagged by consistency check")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ring.Record(v1, time.Unix(1700000000, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if srv.Snapshot().ContentHash() != bad {
		t.Fatal("reload did not promote v2")
	}

	sum := srv.ScrubOnce(context.Background())
	if sum.ProbeErr == nil {
		t.Fatal("probe should have failed on v2")
	}
	if !sum.RolledBack || sum.RollbackErr != nil {
		t.Fatalf("auto rollback did not happen: %+v", sum)
	}
	if got := srv.Snapshot().ContentHash(); got != v1.ContentHash() {
		t.Fatalf("serving %s after auto rollback, want v1 %s", got, v1.ContentHash())
	}
	if n := srv.metrics.rollbacksAuto.Load(); n != 1 {
		t.Fatalf(`Rollbacks("auto") = %d, want 1`, n)
	}
	if n := srv.metrics.probeFailures.Load(); n != 1 {
		t.Fatalf("ProbeFailures = %d, want 1", n)
	}
	// The next cycle probes v1, which is healthy: no further rollback.
	sum = srv.ScrubOnce(context.Background())
	if sum.ProbeErr != nil || sum.RolledBack {
		t.Fatalf("post-rollback cycle not clean: %+v", sum)
	}
}

// TestScrubProbeFailureWithoutRing: a failed probe with no ring has
// nowhere to roll back to; the summary says so instead of panicking or
// silently passing.
func TestScrubProbeFailureWithoutRing(t *testing.T) {
	srv, err := NewServer(mustSnapshot(t, testMapping(t)), Options{
		healthProbe: func(*Snapshot) error { return errors.New("probe: always failing") },
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := srv.ScrubOnce(context.Background())
	if sum.ProbeErr == nil || !errors.Is(sum.RollbackErr, ErrNoVerifiedGeneration) {
		t.Fatalf("summary = %+v, want probe failure and ErrNoVerifiedGeneration", sum)
	}
	if sum.RolledBack {
		t.Fatal("claimed a rollback with no ring configured")
	}
}

// TestSnapshotPersistErrorKeepsServing: a -snapshot-out persist that
// fails after a successful swap is logged and counted but never fails
// the reload — serving the fresh snapshot matters more than mirroring
// it to disk. Uses the deterministic fault filesystem to force fsync
// failure on exactly the snapshot-out artifact.
func TestSnapshotPersistErrorKeepsServing(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFS(vfs.OS, dir, faultinject.FSConfig{
		Seed:  42,
		Force: map[string]faultinject.FSKind{"out.snapbin": faultinject.FSKindSyncError},
	})
	v1 := mustSnapshot(t, variantMapping(1, 128))
	v2 := mustSnapshot(t, variantMapping(2, 128))
	srv, err := NewServer(v1, Options{
		FS:          ffs,
		SnapshotOut: filepath.Join(dir, "out.snapbin"),
		Prepared: func(ctx context.Context) (*Snapshot, error) {
			return v2, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/admin/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reload failed because persistence failed: %d %s", rec.Code, rec.Body.String())
	}
	if srv.Snapshot().ContentHash() != v2.ContentHash() {
		t.Fatal("swap did not promote v2")
	}
	if n := srv.metrics.persistErrors.Load(); n != 1 {
		t.Fatalf("PersistErrors = %d, want 1", n)
	}
	if n := ffs.Stats().Injected; n == 0 {
		t.Fatal("fault filesystem injected nothing — the test exercised the wrong path")
	}
	// Serving still works on the promoted snapshot.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats after failed persist: %d", rec.Code)
	}
}
