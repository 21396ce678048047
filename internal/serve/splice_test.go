package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/snapbin"
)

// goldenHash is the content hash of goldenSnapshot, computed by the
// writer that pre-rendered every /v1/as tail into memory, before IDs
// were spliced at serve time. testdata/golden-v1.snapbin is that
// writer's artifact of the same snapshot.
const goldenHash = "5f3cac2373c2bae7fcb2228c54b57b8e23a09906b1c48e54744d400884a85343"

// goldenMapping is a fixed mapping whose names exercise JSON escaping
// (quotes, backslashes, control characters, non-ASCII, HTML-special
// characters) and decoys for the member-array search (brackets and a
// fake "asns" field inside a name), across every feature combination
// and a 10-digit ASN.
func goldenMapping() *cluster.Mapping {
	b := cluster.NewBuilder()
	for a := asnum.ASN(1); a <= 40; a++ {
		b.AddUniverse(a)
	}
	b.AddUniverse(4200000000, 65535)
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{1, 2, 3, 4, 5, 6, 7}, Source: cluster.FeatureOIDW})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{1, 2}, Source: cluster.FeatureRR})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{3, 7}, Source: cluster.FeatureFavicon})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{8, 9, 10}, Source: cluster.FeatureOIDP})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{8, 10}, Source: cluster.FeatureNotesAka})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{11, 12}, Source: cluster.FeatureNotesAka})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{13, 14, 15}, Source: cluster.FeatureOIDW})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{16, 4200000000}, Source: cluster.FeatureOIDW})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{20, 21}, Source: cluster.FeatureRR})
	b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{30, 31, 32, 33}, Source: cluster.FeatureFavicon})
	names := map[asnum.ASN]string{
		1:          "Lumen Technologies",
		8:          `Quote "Co" \ Backslash`,
		11:         "AT&T <Services>",
		13:         "Télécom Ünïcode 東京",
		16:         `"asns":[1,2] ],"features":["F"]}`,
		20:         "Tab\there\nnewline",
		30:         "[bracket] org",
		65535:      "Last",
		4200000000: "unused",
	}
	return b.Build(func(members []asnum.ASN) string {
		for _, a := range members {
			if n, ok := names[a]; ok {
				return n
			}
		}
		return ""
	})
}

// goldenSnapshot builds the golden mapping's snapshot with fixed
// provenance and health, so its artifact is byte-reproducible.
func goldenSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	s, err := newSnapshotAt(goldenMapping(), "golden",
		Health{Status: HealthDegraded, Quarantined: 3, Detail: "whois degraded"},
		time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFormatGoldenHash: storing bodies once and splicing IDs at serve
// time leaves the artifact format untouched — the content hash and
// every byte of the encoded artifact match the golden ones.
func TestFormatGoldenHash(t *testing.T) {
	s := goldenSnapshot(t)
	if got := s.ContentHash(); got != goldenHash {
		t.Fatalf("content hash %s, golden %s", got, goldenHash)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden-v1.snapbin"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteSnapshot bytes diverge from the golden artifact (%d vs %d bytes)", buf.Len(), len(want))
	}
	path := filepath.Join(t.TempDir(), "golden.snapbin")
	if _, err := WriteSnapshotFile(path, s); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("WriteSnapshotFile bytes diverge from the golden artifact (err %v)", err)
	}
}

// opaqueReader hides bytes.Reader's Len, forcing the streaming decoder
// to size its buffers from the bytes that actually arrive.
type opaqueReader struct{ r io.Reader }

func (o opaqueReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// loaders is every way an artifact becomes a serving snapshot: the
// streaming decoder over a reader (with and without a known length) and
// over a file, and the in-memory decoder under the memory mapping.
func loaders(data []byte, path string) map[string]func() (*Snapshot, error) {
	return map[string]func() (*Snapshot, error){
		"reader":        func() (*Snapshot, error) { return LoadSnapshot(bytes.NewReader(data)) },
		"opaque-reader": func() (*Snapshot, error) { return LoadSnapshot(opaqueReader{bytes.NewReader(data)}) },
		"file":          func() (*Snapshot, error) { return LoadSnapshotFile(path) },
		"mapped":        func() (*Snapshot, error) { return LoadSnapshotFileMapped(path) },
	}
}

// TestLoadGoldenArtifact: an artifact written before bodies were stored
// once loads through every loader, verifies its tails, and serves
// exactly what a fresh build of the same mapping serves.
func TestLoadGoldenArtifact(t *testing.T) {
	path := filepath.Join("testdata", "golden-v1.snapbin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenSnapshot(t)
	for name, load := range loaders(data, path) {
		t.Run(name, func(t *testing.T) {
			got, err := load()
			if err != nil {
				t.Fatal(err)
			}
			if got.ContentHash() != goldenHash {
				t.Fatalf("loaded hash %s, golden %s", got.ContentHash(), goldenHash)
			}
			snapEqual(t, want, got)
			if h := snapbin.HashImage(got.image()); h != goldenHash {
				t.Fatalf("re-encoding the loaded snapshot hashes %s, golden %s", h, goldenHash)
			}
		})
	}
}

// resign recomputes an encoded artifact's content hash after a test
// has edited its payloads: the hash covers every section from stats
// (table entry 1) to the end of the file.
func resign(data []byte) {
	statsOff := binary.LittleEndian.Uint64(data[64+20+4:])
	sum := sha256.Sum256(data[statsOff:])
	copy(data[24:56], sum[:])
}

// TestLoadersRejectTailBodyMismatch: a re-signed artifact whose AS tail
// disagrees with its org body — here one sibling digit — is rejected
// as corrupt by every loader, before any canary could see it.
func TestLoadersRejectTailBodyMismatch(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, mustSnapshot(t, variantMapping(2, 64))); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The artifact ends with the last tail, `…,"siblings":[…,64]}\n`:
	// four bytes from the end sits its last sibling digit.
	last := len(data) - 4
	if data[last] < '0' || data[last] > '9' {
		t.Fatalf("byte %q is not a sibling digit", data[last])
	}
	data[last] = '0' + (data[last]-'0'+1)%10
	resign(data)
	path := filepath.Join(t.TempDir(), "mismatch.snapbin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, load := range loaders(data, path) {
		t.Run(name, func(t *testing.T) {
			if _, err := load(); !errors.Is(err, snapbin.ErrCorrupt) {
				t.Fatalf("load = %v, want %v", err, snapbin.ErrCorrupt)
			}
		})
	}
}
