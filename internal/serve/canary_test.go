package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// poisonOrgBodies encodes snap as a snapbin artifact, plants a raw
// control byte (invalid inside a JSON string) at the start of every
// organization's name — in its org body and, consistently, in the copy
// its AS tail embeds — and re-signs the content hash, modeling an
// artifact altered after hashing (a buggy writer, a tampering proxy).
// Every structural check passes: magic, version, size, section table,
// the re-signed hash, the tail↔body check, and cluster.Restore's
// index↔membership verification. Only replaying live traffic against
// the candidate can catch it, which is exactly the canary's job.
func poisonOrgBodies(t testing.TB, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	data := buf.Bytes()
	// Walk the section table: 7 entries of 20 bytes at offset 64
	// {id u32, offset u64, length u64}.
	type span struct{ off, length uint64 }
	sections := make(map[uint32]span, 7)
	for i := 0; i < 7; i++ {
		e := data[64+20*i:]
		id := binary.LittleEndian.Uint32(e)
		sections[id] = span{binary.LittleEndian.Uint64(e[4:]), binary.LittleEndian.Uint64(e[12:])}
	}
	// Org bodies (section 6) and AS tails (section 7) payloads: count
	// u32, count lengths u32, then the blobs contiguously. Tail i embeds
	// body i (sans newline) right after its `,"org":` prefix.
	blobs := func(sec span) [][]byte {
		n := binary.LittleEndian.Uint32(data[sec.off:])
		out := make([][]byte, n)
		blob := sec.off + 4 + 4*uint64(n)
		for i := range out {
			l := uint64(binary.LittleEndian.Uint32(data[sec.off+4+4*uint64(i):]))
			out[i] = data[blob : blob+l]
			blob += l
		}
		return out
	}
	tails := blobs(sections[7])
	for i, body := range blobs(sections[6]) {
		at := bytes.Index(body, []byte(`"name":"`))
		if at < 0 {
			continue
		}
		at += len(`"name":"`)
		body[at] = 0x01
		tails[i][len(`,"org":`)+at] = 0x01
	}
	// Re-sign: the content hash covers sections 2..7 in order.
	h := sha256.New()
	for _, id := range []uint32{2, 3, 4, 5, 6, 7} {
		s := sections[id]
		h.Write(data[s.off : s.off+s.length])
	}
	copy(data[24:56], h.Sum(nil))
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

// TestCanaryRejectsPoisonedBodies: a hash-valid artifact with corrupt
// pre-rendered bodies decodes cleanly but dies at the canary with the
// typed error.
func TestCanaryRejectsPoisonedBodies(t *testing.T) {
	snap := mustSnapshot(t, variantMapping(2, 128))
	poisoned, err := LoadSnapshot(bytes.NewReader(poisonOrgBodies(t, snap)))
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
	poisoned, err := LoadSnapshot(bytes.NewReader(poisonOrgBodies(t, snap)))
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
	poisonedBytes := poisonOrgBodies(t, mustSnapshot(t, variantMapping(2, 128)))
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
