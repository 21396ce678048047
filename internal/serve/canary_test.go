package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// poisonSearchIndex encodes snap as a snapbin artifact, shifts every
// posting of the token index to the next organization (the last wraps
// to the first, so each list stays ascending and in range) so that no
// name token resolves back to its own organization, and re-signs the
// content hash, modeling an artifact altered after hashing (a buggy
// writer, a tampering proxy). Every structural check passes: magic,
// version, size, section table, the re-signed hash, the lowercase-name,
// body and tail checks against the clusters, the posting range and
// order checks, and cluster.Restore's index↔membership verification.
// Only replaying live traffic against the candidate can catch it, which
// is exactly the canary's job.
func poisonSearchIndex(t testing.TB, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	data := buf.Bytes()
	n := uint32(snap.NumOrgs())
	// The tokens section is table entry 4 {id u32, offset u64, length
	// u64}. Its payload: the token count, the length-prefixed tokens,
	// then each token's posting count and postings.
	at := int(binary.LittleEndian.Uint64(data[64+4*20+4:]))
	tokens := int(binary.LittleEndian.Uint32(data[at:]))
	at += 4
	for i := 0; i < tokens; i++ {
		at += 4 + int(binary.LittleEndian.Uint32(data[at:]))
	}
	for i := 0; i < tokens; i++ {
		c := int(binary.LittleEndian.Uint32(data[at:]))
		ids := make([]uint32, c)
		for j := range ids {
			ids[j] = (binary.LittleEndian.Uint32(data[at+4+4*j:]) + 1) % n
		}
		slices.Sort(ids)
		for j, id := range ids {
			binary.LittleEndian.PutUint32(data[at+4+4*j:], id)
		}
		at += 4 + 4*c
	}
	// Re-sign: the content hash covers sections 2..7, which run from
	// the stats section (table entry 1) to the end of the file.
	resign(data)
	return data
}

// TestCanaryAcceptsValidSnapshot: every healthy snapshot this repo
// builds — full, binary round-trip, small and large — passes the
// default canary.
func TestCanaryAcceptsValidSnapshot(t *testing.T) {
	for _, m := range []*Snapshot{
		mustSnapshot(t, testMapping(t)),
		mustSnapshot(t, variantMapping(3, 512)),
	} {
		if err := canaryCheck(m, nil, CanaryConfig{}); err != nil {
			t.Fatalf("valid snapshot rejected: %v", err)
		}
	}
	// And a binary round-trip of one.
	var buf bytes.Buffer
	snap := mustSnapshot(t, variantMapping(1, 256))
	if _, err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := canaryCheck(loaded, snap, CanaryConfig{}); err != nil {
		t.Fatalf("binary round-trip rejected: %v", err)
	}
}

// TestCanaryRejectsPoisonedBodies: a hash-valid artifact with a
// corrupt search index decodes cleanly but dies at the canary with the
// typed error. The index is poisoned rather than the bodies because the
// decoder checks every body against a render of its cluster.
func TestCanaryRejectsPoisonedBodies(t *testing.T) {
	snap := mustSnapshot(t, variantMapping(2, 128))
	poisoned, err := LoadSnapshot(bytes.NewReader(poisonSearchIndex(t, snap)))
	if err != nil {
		t.Fatalf("poisoned artifact must decode (it is re-signed): %v", err)
	}
	err = canaryCheck(poisoned, snap, CanaryConfig{})
	if !errors.Is(err, ErrCanaryRejected) {
		t.Fatalf("canaryCheck = %v, want ErrCanaryRejected", err)
	}
}

// TestCanaryThetaTolerance: the opt-in θ gate rejects a drift past the
// tolerance and accepts one within it.
func TestCanaryThetaTolerance(t *testing.T) {
	prev := mustSnapshot(t, variantMapping(0, 256)) // runs of 2 ASNs
	next := mustSnapshot(t, variantMapping(4, 256)) // runs of 6 ASNs: very different θ
	err := canaryCheck(next, prev, CanaryConfig{ThetaTolerance: 1e-9})
	if !errors.Is(err, ErrCanaryRejected) {
		t.Fatalf("theta drift accepted: %v", err)
	}
	if err := canaryCheck(next, prev, CanaryConfig{ThetaTolerance: 10}); err != nil {
		t.Fatalf("theta within tolerance rejected: %v", err)
	}
	// Default config has no θ gate: the same swing passes.
	if err := canaryCheck(next, prev, CanaryConfig{}); err != nil {
		t.Fatalf("default config must not gate theta: %v", err)
	}
}

// TestCanaryDisable: Disable promotes anything, even the poisoned
// artifact.
func TestCanaryDisable(t *testing.T) {
	snap := mustSnapshot(t, variantMapping(2, 128))
	poisoned, err := LoadSnapshot(bytes.NewReader(poisonSearchIndex(t, snap)))
	if err != nil {
		t.Fatal(err)
	}
	if err := canaryCheck(poisoned, snap, CanaryConfig{Disable: true}); err != nil {
		t.Fatalf("disabled canary must accept: %v", err)
	}
}

// TestReloadCanaryGate: a poisoned candidate arriving through the full
// reload path is refused with 422, the serving snapshot is untouched,
// and the refusal is counted.
func TestReloadCanaryGate(t *testing.T) {
	good := mustSnapshot(t, variantMapping(1, 128))
	poisonedBytes := poisonSearchIndex(t, mustSnapshot(t, variantMapping(2, 128)))
	srv, err := NewServer(good, Options{
		Prepared: func(ctx context.Context) (*Snapshot, error) {
			return LoadSnapshot(bytes.NewReader(poisonedBytes))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/admin/reload", nil))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("reload status = %d, want 422 (body: %s)", rec.Code, rec.Body.String())
	}
	if srv.Snapshot() != good {
		t.Fatal("serving snapshot changed despite canary rejection")
	}
	if n := srv.Metrics().CanaryRejects(); n != 1 {
		t.Fatalf("CanaryRejects = %d, want 1", n)
	}
	if ok, failed := srv.Metrics().Reloads(); ok != 0 || failed != 1 {
		t.Fatalf("Reloads = (%d ok, %d failed), want (0, 1)", ok, failed)
	}
}
