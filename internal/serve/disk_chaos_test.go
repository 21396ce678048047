package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/faultinject"
	"github.com/nu-aqualab/borges/internal/vfs"
)

// TestDiskChaosStorm is the storage-integrity acceptance test. One
// server lives through the full catalogue of disk failure, with
// concurrent clients hammering lookups the entire time, and every fault
// is injected deterministically (fixed seed, forced fates) so a failure
// reproduces bit-for-bit:
//
//   - a hash-valid but poisoned candidate arrives via reload → the
//     canary refuses it (phase A);
//   - every snapshot-out persist tears mid-write (forced short write) →
//     swaps keep succeeding, torn persists are only counted (phase B);
//   - a generation is corrupted on disk mid-serve → the scrubber
//     quarantines it exactly once (phase C);
//   - the serving snapshot fails its health probe → automatic rollback
//     to the newest verified generation (phase D).
//
// Throughout: zero failed client lookups, and every content hash a
// client ever observed — and everything reachable from the ring — is in
// the verified set. A never-verified artifact must be unreachable from
// any serving path.
func TestDiskChaosStorm(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFS(vfs.OS, dir, faultinject.FSConfig{
		Seed: 1337,
		// Every serving.snapbin write (including its atomic-write temp
		// files) tears: persistence of the swap mirror fails mid-write.
		Force: map[string]faultinject.FSKind{"serving.snapbin": faultinject.FSKindShortWrite},
	})
	ring, err := NewGenerationRing(filepath.Join(dir, "gens"), 3, ffs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// All variants share the ASN universe 1..64, so any client lookup
	// is answerable by whichever snapshot is serving; 64 clusters keeps
	// the default 64-sample canary exhaustive.
	v1 := mustSnapshot(t, variantMapping(1, 64))
	v2 := mustSnapshot(t, variantMapping(2, 64))
	v3 := mustSnapshot(t, variantMapping(3, 64))
	poisoned, err := LoadSnapshot(bytes.NewReader(poisonSearchIndex(t, mustSnapshot(t, variantMapping(4, 64)))))
	if err != nil {
		t.Fatal(err)
	}
	verified := map[string]bool{
		v1.ContentHash(): true,
		v2.ContentHash(): true,
		v3.ContentHash(): true,
	}

	var staged atomic.Pointer[Snapshot]
	var badHash atomic.Value // string: hash the health probe flags
	badHash.Store("")
	srv, err := NewServer(v1, Options{
		FS:          ffs,
		Generations: ring,
		SnapshotOut: filepath.Join(dir, "serving.snapbin"),
		Prepared: func(ctx context.Context) (*Snapshot, error) {
			if s := staged.Swap(nil); s != nil {
				return s, nil
			}
			return nil, errors.New("nothing staged")
		},
		healthProbe: func(s *Snapshot) error {
			if s.ContentHash() == badHash.Load().(string) {
				return errors.New("probe: consistency check flagged the serving snapshot")
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
	h := srv.Handler()
	reload := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/admin/reload", nil))
		return rec.Code
	}

	// Concurrent clients: lookups must never fail and must never
	// observe a snapshot outside the verified set, no matter which
	// phase the storm is in.
	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		failed   atomic.Int64
		observed sync.Map // content hash → true
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				observed.Store(srv.Snapshot().ContentHash(), true)
				rec := httptest.NewRecorder()
				asn := 1 + (g*8+i)%64
				h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/as/%d", asn), nil))
				if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
					failed.Add(1)
				}
			}
		}(g)
	}

	// Phase A: the poisoned candidate is structurally perfect (its hash
	// was re-signed after corruption) — only the canary can stop it.
	staged.Store(poisoned)
	if code := reload(); code != http.StatusUnprocessableEntity {
		t.Fatalf("phase A: poisoned reload = %d, want 422", code)
	}
	if got := srv.Snapshot().ContentHash(); got != v1.ContentHash() {
		t.Fatalf("phase A: serving %s after rejected reload, want v1", got)
	}
	if n := srv.metrics.canaryRejects.Load(); n != 1 {
		t.Fatalf("phase A: CanaryRejects = %d, want 1", n)
	}

	// Phase B: two good promotions. Every snapshot-out persist tears
	// mid-write; the swaps must succeed anyway and only the counter
	// moves.
	staged.Store(v2)
	if code := reload(); code != http.StatusOK {
		t.Fatalf("phase B: v2 reload = %d", code)
	}
	staged.Store(v3)
	if code := reload(); code != http.StatusOK {
		t.Fatalf("phase B: v3 reload = %d", code)
	}
	if got := srv.Snapshot().ContentHash(); got != v3.ContentHash() {
		t.Fatalf("phase B: serving %s, want v3", got)
	}
	if n := srv.metrics.persistErrors.Load(); n != 2 {
		t.Fatalf("phase B: PersistErrors = %d, want 2 (one torn persist per swap)", n)
	}

	// Phase C: corrupt the middle generation (v2) on disk mid-serve.
	// The scrubber quarantines it exactly once; re-scrubbing a clean
	// ring finds nothing.
	gens := ring.Generations()
	if len(gens) != 3 {
		t.Fatalf("phase C: ring holds %d generations, want 3", len(gens))
	}
	victim := filepath.Join(ring.Dir(), gens[1].File)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := srv.ScrubOnce(context.Background())
	if sum.Quarantined != 1 {
		t.Fatalf("phase C: first scrub Quarantined = %d, want 1", sum.Quarantined)
	}
	if sum.ProbeErr != nil || sum.RolledBack {
		t.Fatalf("phase C: healthy serving snapshot triggered rollback: %+v", sum)
	}
	if sum := srv.ScrubOnce(context.Background()); sum.Quarantined != 0 {
		t.Fatalf("phase C: second scrub Quarantined = %d, want 0 (exactly-once)", sum.Quarantined)
	}
	if _, err := os.Stat(victim + ".corrupt"); err != nil {
		t.Fatalf("phase C: corrupt generation not moved aside: %v", err)
	}

	// Phase D: the probe turns against v3. The scrub cycle detects it
	// and auto-rolls back — v2's generation is quarantined, so the
	// newest verified generation is v1.
	badHash.Store(v3.ContentHash())
	sum = srv.ScrubOnce(context.Background())
	if sum.ProbeErr == nil || !sum.RolledBack || sum.RollbackErr != nil {
		t.Fatalf("phase D: scrub summary = %+v, want probe failure and rollback", sum)
	}
	if got := srv.Snapshot().ContentHash(); got != v1.ContentHash() {
		t.Fatalf("phase D: serving %s after auto rollback, want v1", got)
	}
	if n := srv.metrics.rollbacksAuto.Load(); n != 1 {
		t.Fatalf(`phase D: Rollbacks("auto") = %d, want 1`, n)
	}
	badHash.Store("")
	if sum := srv.ScrubOnce(context.Background()); sum.ProbeErr != nil || sum.RolledBack {
		t.Fatalf("phase D: post-rollback cycle not clean: %+v", sum)
	}

	close(stop)
	wg.Wait()

	// The global invariants the storm must not have bent.
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d client lookups failed during the storm, want 0", n)
	}
	observed.Range(func(k, _ any) bool {
		if !verified[k.(string)] {
			t.Errorf("clients observed unverified snapshot %s", k.(string))
		}
		return true
	})
	for _, g := range ring.Generations() {
		if !verified[g.Hash] {
			t.Errorf("ring lists unverified generation %s", g.Hash)
		}
	}
	if n := ring.QuarantinedTotal(); n != 1 {
		t.Errorf("QuarantinedTotal = %d, want 1", n)
	}
	// The rollback itself tore one more snapshot-out persist.
	if n := srv.metrics.persistErrors.Load(); n != 3 {
		t.Errorf("final PersistErrors = %d, want 3", n)
	}
	if n := ffs.Stats().Injected; n < 3 {
		t.Errorf("fault filesystem injected %d faults, want >= 3", n)
	}
}
