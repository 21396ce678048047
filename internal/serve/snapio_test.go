package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/nu-aqualab/borges/internal/cluster"
)

// snapEqual asserts two snapshots are deep-equal in every field that
// affects serving: mapping, packed index, stats and search index; the
// responses are rendered from the mapping's clusters. Provenance
// (source, load time, load mode) is deliberately excluded — it is what
// MAY differ between a full build, a binary load, and a delta patch of
// the same logical snapshot. The content hash covers exactly the
// compared state, so it is asserted too as the byte-level summary.
func snapEqual(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(want.orgs, got.orgs) {
		t.Fatal("organization tables diverged")
	}
	if !reflect.DeepEqual(want.index.Keys(), got.index.Keys()) || !reflect.DeepEqual(want.index.Vals(), got.index.Vals()) {
		t.Fatal("packed index diverged")
	}
	if !reflect.DeepEqual(want.stats, got.stats) {
		t.Fatalf("stats diverged:\n want %+v\n  got %+v", want.stats, got.stats)
	}
	if !reflect.DeepEqual(want.tokens, got.tokens) {
		t.Fatal("token list diverged")
	}
	if !reflect.DeepEqual(want.postings, got.postings) {
		t.Fatal("posting lists diverged")
	}
	if wh, gh := want.ContentHash(), got.ContentHash(); wh != gh {
		t.Fatalf("content hash diverged: %s vs %s", wh, gh)
	}
}

// TestSnapshotBinaryRoundTrip is the format's correctness guard: a
// snapshot written as a binary artifact and loaded back must be
// deep-equal to the original, at a small hand-checked scale and at a
// consolidation-bench scale.
func TestSnapshotBinaryRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		m    *cluster.Mapping
	}{
		{"small", testMapping(t)},
		{"large", benchBuilder(2048).Build(benchNamer)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := mustSnapshot(t, tc.m)
			var buf bytes.Buffer
			hash, err := WriteSnapshot(&buf, orig)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.LoadMode() != LoadModeBinary {
				t.Fatalf("load mode %q, want %q", loaded.LoadMode(), LoadModeBinary)
			}
			if orig.ContentHash() != hash || loaded.ContentHash() != hash {
				t.Fatalf("hash drift: orig %s, artifact %s, loaded %s",
					orig.ContentHash(), hash, loaded.ContentHash())
			}
			snapEqual(t, orig, loaded)
			// Spot-check the serving surface end to end.
			for _, c := range tc.m.Clusters[:min(len(tc.m.Clusters), 10)] {
				hit, ok := loaded.Lookup(c.ASNs[0])
				if !ok || hit.ID != c.ID || hit.Name != c.Name {
					t.Fatalf("Lookup(%s) diverged after binary load", c.ASNs[0])
				}
			}
		})
	}
}

// TestSnapshotFileSource checks the sniffing source: the same path
// serves a JSONL rebuild or a binary load depending on the file's
// magic, producing content-identical snapshots either way. The
// fixture covers every ASN with a featured sibling set because the
// JSONL format defaults feature-less records to OID_W — a bare
// universe singleton would not survive a JSONL round trip bit-for-bit.
func TestSnapshotFileSource(t *testing.T) {
	m := variantMapping(3, 60)
	orig := mustSnapshot(t, m)
	dir := t.TempDir()

	jsonlPath := filepath.Join(dir, "mapping.jsonl")
	f, err := os.Create(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WriteJSONL(f, m); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fromJSONL, err := SnapshotFileSource(jsonlPath)(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fromJSONL.LoadMode() != LoadModeFull {
		t.Fatalf("JSONL load mode %q, want %q", fromJSONL.LoadMode(), LoadModeFull)
	}

	binPath := filepath.Join(dir, "snapshot.bin")
	if _, err := WriteSnapshotFile(binPath, orig); err != nil {
		t.Fatal(err)
	}
	fromBin, err := SnapshotFileSource(binPath)(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fromBin.LoadMode() != LoadModeBinary {
		t.Fatalf("binary load mode %q, want %q", fromBin.LoadMode(), LoadModeBinary)
	}

	snapEqual(t, orig, fromJSONL)
	snapEqual(t, orig, fromBin)

	// A crashed half-written artifact under the published name must be
	// rejected by the size/hash check, not served.
	data, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	tornPath := filepath.Join(dir, "torn.bin")
	if err := os.WriteFile(tornPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SnapshotFileSource(tornPath)(context.Background()); err == nil {
		t.Fatal("half-written artifact served")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SnapshotFileSource(binPath)(ctx); err == nil {
		t.Fatal("cancelled context ignored")
	}
}

// TestWriteSnapshotFileAtomic exercises the serve-level wrapper the
// daemon's -snapshot-out uses.
func TestWriteSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	orig := mustSnapshot(t, testMapping(t))
	hash, err := WriteSnapshotFile(path, orig)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ContentHash() != hash {
		t.Fatalf("hash %s after load, wrote %s", loaded.ContentHash(), hash)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("stray files after atomic write: %v", names)
	}
}
