package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/snapbin"
)

// goldenHash is the content hash of goldenSnapshot, computed by the
// writer that pre-rendered every /v1/org body and /v1/as tail into
// memory with encoding/json. testdata/golden-v1.snapbin is that
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

// TestFormatGoldenHash: rendering the org-bodies and AS-tails sections
// from the clusters leaves the artifact format untouched — the content
// hash and every byte of the encoded artifact match the golden ones.
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
// over a file.
func loaders(data []byte, path string) map[string]func() (*Snapshot, error) {
	return map[string]func() (*Snapshot, error){
		"reader":        func() (*Snapshot, error) { return LoadSnapshot(bytes.NewReader(data)) },
		"opaque-reader": func() (*Snapshot, error) { return LoadSnapshot(opaqueReader{bytes.NewReader(data)}) },
		"file":          func() (*Snapshot, error) { return LoadSnapshotFile(path) },
	}
}

// TestLoadGoldenArtifact: an artifact written by the encoding/json
// renderer loads through every loader, its bodies and tails checked
// against the clusters, and serves exactly what a fresh build of the
// same mapping serves.
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

// TestLoadersRejectTailBodyMismatch: a re-signed artifact whose org
// body or AS tail disagrees with its cluster — here one name letter of
// the first body, or one sibling digit of the last tail — is rejected
// as corrupt by every loader, before any canary could see it.
func TestLoadersRejectTailBodyMismatch(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, mustSnapshot(t, variantMapping(2, 64))); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	dir := t.TempDir()
	type mismatch struct {
		what, path string
		data       []byte
	}
	var cases []mismatch
	for _, tc := range []struct {
		what string
		at   func(data []byte) int
	}{
		// Section 6 (table entry 5) opens with the count and a length
		// per organization; the first body follows, `{"org":0,"name":"Org v2 #1",…`.
		{"org body 0", func(data []byte) int {
			off := int(binary.LittleEndian.Uint64(data[64+5*20+4:]))
			n := int(binary.LittleEndian.Uint32(data[off:]))
			return off + 4 + 4*n + len(`{"org":0,"name":"`)
		}},
		// The artifact ends with the last tail, `…,"siblings":[…,64]}\n`:
		// four bytes from the end sits its last sibling digit.
		{"AS tail", func(data []byte) int { return len(data) - 4 }},
	} {
		data := append([]byte(nil), valid...)
		at := tc.at(data)
		if c := data[at]; c == 'O' {
			data[at] = 'o'
		} else if c >= '0' && c <= '9' {
			data[at] = '0' + (c-'0'+1)%10
		} else {
			t.Fatalf("%s: byte %q is neither the name's first letter nor a sibling digit", tc.what, c)
		}
		resign(data)
		path := filepath.Join(dir, fmt.Sprintf("mismatch-%d.snapbin", len(cases)))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, mismatch{tc.what, path, data})
	}
	for name := range loaders(valid, "") {
		t.Run(name, func(t *testing.T) {
			for _, tc := range cases {
				_, err := loaders(tc.data, tc.path)[name]()
				if !errors.Is(err, snapbin.ErrCorrupt) || !strings.Contains(err.Error(), tc.what) {
					t.Fatalf("%s mismatch: load = %v, want %v naming the %s", tc.what, err, snapbin.ErrCorrupt, tc.what)
				}
			}
		})
	}
}
