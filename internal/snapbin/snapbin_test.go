package snapbin

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
)

// testClusters are the two organizations of testImage, in canonical
// order.
func testClusters() []cluster.Cluster {
	clusters := []cluster.Cluster{
		{ID: 0, Name: "Lumen", ASNs: []asnum.ASN{209, 3356, 3549}},
		{ID: 1, Name: "Tiny Net", ASNs: []asnum.ASN{65000}},
	}
	clusters[0].Features[cluster.FeatureOIDW] = true
	clusters[0].Features[cluster.FeatureRR] = true
	clusters[1].Features[cluster.FeatureFavicon] = true
	return clusters
}

// orgsOf packs clusters into organization tables.
func orgsOf(clusters []cluster.Cluster) Orgs {
	var b OrgsBuilder
	for i := range clusters {
		b.Add(&clusters[i])
	}
	return b.Table()
}

// testImage hand-builds a small, internally consistent image: two
// clusters in canonical order with a matching packed index and token
// index. statOrgs/statASNs are preset so a decoded image DeepEquals
// this one.
func testImage() *Image {
	img := &Image{
		Source:       "test.jsonl",
		LoadedAt:     time.Unix(0, 1723000000000000000),
		HealthStatus: "ok",
		Quarantined:  2,
		HealthDetail: "whois degraded",
		Theta:        0.25,
		MultiASOrgs:  1,
		LargestOrg:   3,
		Histogram:    []Bucket{{Lo: 1, Hi: 1, Orgs: 1}, {Lo: 2, Hi: 2, Orgs: 0}, {Lo: 3, Hi: 4, Orgs: 1}},
		Orgs:         orgsOf(testClusters()),
		Keys:         []asnum.ASN{209, 3356, 3549, 65000},
		Vals:         []int32{0, 0, 0, 1},
		Tokens:       stringsOf("lumen", "net", "tiny"),
		Postings:     postingsOf([]int32{0}, []int32{1}, []int32{1}),
		statOrgs:     2,
		statASNs:     4,
	}
	return img
}

// stringsOf packs ss into a table.
func stringsOf(ss ...string) Strings {
	var b StringsBuilder
	for _, str := range ss {
		b.Add(str)
	}
	return b.Table()
}

// postingsOf packs lists into a table.
func postingsOf(lists ...[]int32) Postings {
	var p Postings
	for _, ids := range lists {
		p.Append(ids...)
	}
	return p
}

func encode(t *testing.T, img *Image) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	hash, err := Encode(&buf, img)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), hash
}

// opaque hides a reader's Len, so Read must grow its buffers with the
// bytes that actually arrive instead of trusting a known size.
type opaque struct{ r io.Reader }

func (o opaque) Read(p []byte) (int, error) { return o.r.Read(p) }

// decoders are the streaming decoder over a reader with and without a
// known length.
var decoders = []struct {
	name   string
	decode func([]byte) (*Image, string, error)
}{
	{"stream", func(d []byte) (*Image, string, error) { return Read(bytes.NewReader(d)) }},
	{"stream-opaque", func(d []byte) (*Image, string, error) { return Read(opaque{bytes.NewReader(d)}) }},
}

func TestRoundTrip(t *testing.T) {
	img := testImage()
	data, hash := encode(t, img)
	if want := HashImage(img); want != hash {
		t.Fatalf("HashImage %s disagrees with Encode %s", want, hash)
	}
	for _, dec := range decoders {
		got, gotHash, err := dec.decode(data)
		if err != nil {
			t.Fatalf("%s: %v", dec.name, err)
		}
		if gotHash != hash {
			t.Fatalf("%s hash %s, Encode returned %s", dec.name, gotHash, hash)
		}
		if !reflect.DeepEqual(got, img) {
			t.Fatalf("%s round trip drift:\n got %+v\nwant %+v", dec.name, got, img)
		}
	}
}

// TestHashImageAllocs: the section writers build every section in one
// reused buffer, so hashing allocates the same handful of objects (the
// digest and the hex string) however large the image is.
func TestHashImageAllocs(t *testing.T) {
	small := testImage()
	large := testImage()
	var tokens StringsBuilder
	clusters := testClusters()
	for i := 0; i < 2000; i++ {
		tokens.Add(fmt.Sprintf("tok%05d", i))
		large.Postings.Append(0, 1)
		clusters = append(clusters, clusters[1])
	}
	large.Orgs = orgsOf(clusters)
	large.Tokens = tokens.Table()
	HashImage(large) // warm the buffer pool
	want := testing.AllocsPerRun(20, func() { HashImage(small) })
	if got := testing.AllocsPerRun(20, func() { HashImage(large) }); got > want || got > 8 {
		t.Fatalf("HashImage allocates %v times on a large image, %v on a small one", got, want)
	}
}

func TestHashExcludesProvenance(t *testing.T) {
	a := testImage()
	b := testImage()
	b.Source = "elsewhere.bin"
	b.LoadedAt = time.Unix(0, 9000000000)
	if HashImage(a) != HashImage(b) {
		t.Fatal("content hash depends on provenance (source/loadedAt)")
	}
	_, hashA := encode(t, a)
	_, hashB := encode(t, b)
	if hashA != hashB {
		t.Fatal("encoded hashes differ across provenance-only changes")
	}
	c := testImage()
	clusters := testClusters()
	clusters[0].Name = "Lumen Technologies"
	c.Orgs = orgsOf(clusters)
	if HashImage(c) == HashImage(a) {
		t.Fatal("content change did not change the hash")
	}
}

func TestTypedErrors(t *testing.T) {
	valid, _ := encode(t, testImage())
	mut := func(f func(d []byte) []byte) []byte {
		d := append([]byte(nil), valid...)
		return f(d)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", valid[:10], ErrTruncated},
		{"bad magic", mut(func(d []byte) []byte { d[0] = 'X'; return d }), ErrBadMagic},
		{"future version", mut(func(d []byte) []byte { d[8] = 99; return d }), ErrVersion},
		{"torn tail", valid[:len(valid)-7], ErrTruncated},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xAB), ErrCorrupt},
		{"flipped hash byte", mut(func(d []byte) []byte { d[24] ^= 0xFF; return d }), ErrHashMismatch},
		{"flipped payload byte", mut(func(d []byte) []byte { d[len(d)-2] ^= 0xFF; return d }), ErrHashMismatch},
		{"wrong section id", mut(func(d []byte) []byte { d[headerSize] = 42; return d }), ErrCorrupt},
		{"shifted section offset", mut(func(d []byte) []byte { d[headerSize+4]++; return d }), ErrCorrupt},
		{"bad section count", mut(func(d []byte) []byte { d[12] = 2; return d }), ErrCorrupt},
	}
	// A re-signed artifact whose first org body or last AS tail
	// disagrees with its cluster passes the hash check and must still
	// be refused.
	bodyMismatch := mut(func(d []byte) []byte {
		off := binary.LittleEndian.Uint64(d[headerSize+5*sectionEntrySize+4:])
		d[int(off)+12+len(`{"org":0,"name":"`)] = 'l' // "Lumen" becomes "lumen"
		resign(d)
		return d
	})
	tailMismatch := mut(func(d []byte) []byte {
		d[len(d)-4] = '0' + (d[len(d)-4]-'0'+1)%10 // the last sibling digit
		resign(d)
		return d
	})
	// A re-signed artifact whose stored lowercase name is not its
	// display name lowered: "lumen" becomes "lUmen".
	lowerMismatch := mut(func(d []byte) []byte {
		off := binary.LittleEndian.Uint64(d[headerSize+2*sectionEntrySize+4:])
		// count, two member counts, two feature bytes, the two names.
		at := int(off) + 4 + 4*2 + 2 + (4 + len("Lumen")) + (4 + len("Tiny Net"))
		if got := string(d[at+4 : at+4+len("lumen")]); got != "lumen" {
			t.Fatalf("lowercase run starts with %q, want %q", got, "lumen")
		}
		d[at+5] = 'U'
		resign(d)
		return d
	})
	// A feature byte with a bit no feature owns would re-encode to
	// other bytes than it was read from.
	unknownFeature := mut(func(d []byte) []byte {
		off := binary.LittleEndian.Uint64(d[headerSize+2*sectionEntrySize+4:])
		d[int(off)+4+4*2] |= 0x80 // the first organization's feature byte
		resign(d)
		return d
	})
	cases = append(cases, []struct {
		name string
		data []byte
		want error
	}{
		{"unknown feature bits", unknownFeature, ErrCorrupt},
		{"lowercase name disagrees with name", lowerMismatch, ErrCorrupt},
		{"body disagrees with cluster", bodyMismatch, ErrCorrupt},
		{"tail disagrees with body", tailMismatch, ErrCorrupt},
	}...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, dec := range decoders {
				_, _, err := dec.decode(tc.data)
				if !errors.Is(err, tc.want) {
					t.Fatalf("%s = %v, want %v", dec.name, err, tc.want)
				}
			}
		})
	}
}

// resign recomputes the content hash of an edited artifact: it covers
// sections 2..7, which sit contiguously from the stats section (table
// entry 1) to EOF.
func resign(data []byte) {
	off := binary.LittleEndian.Uint64(data[headerSize+sectionEntrySize+4:])
	sum := sha256.Sum256(data[off:])
	copy(data[24:56], sum[:])
}

// TestEveryTruncationRejected decodes every strict prefix of a valid
// artifact, in memory and streamed (from a reader with and without a
// known length, and from a file): all must fail with a typed error,
// none may panic.
func TestEveryTruncationRejected(t *testing.T) {
	valid, _ := encode(t, testImage())
	path := filepath.Join(t.TempDir(), "prefix.bin")
	for i := 0; i < len(valid); i++ {
		if err := os.WriteFile(path, valid[:i], 0o644); err != nil {
			t.Fatal(err)
		}
		for _, dec := range append(decoders[:len(decoders):len(decoders)], struct {
			name   string
			decode func([]byte) (*Image, string, error)
		}{"file", func([]byte) (*Image, string, error) { return ReadFile(path) }}) {
			_, _, err := dec.decode(valid[:i])
			if err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes decoded successfully", dec.name, i, len(valid))
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrHashMismatch) {
				t.Fatalf("%s: prefix %d: untyped error %v", dec.name, i, err)
			}
		}
	}
}

// TestCountValidation flips an in-payload count field sky-high and
// re-signs the artifact so the hash check passes: the decoder must
// still refuse via the count-vs-remaining check, without ever
// attempting the 2 GiB allocation the count implies.
func TestCountValidation(t *testing.T) {
	data, _ := encode(t, testImage())
	entry := func(i, field int) int {
		return int(binary.LittleEndian.Uint64(data[headerSize+i*sectionEntrySize+field:]))
	}
	// The index section is table entry 3; its payload starts with the
	// key count. Claim 2^31-1 keys in a handful of bytes.
	off := entry(3, 4)
	binary.LittleEndian.PutUint32(data[off:], 1<<31-1)
	resign(data)
	for _, dec := range decoders {
		if _, _, err := dec.decode(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s huge count: %v, want %v", dec.name, err, ErrCorrupt)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	img := testImage()
	hash, err := WriteFile(path, img)
	if err != nil {
		t.Fatal(err)
	}
	got, gotHash, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotHash != hash || !reflect.DeepEqual(got, img) {
		t.Fatal("ReadFile drift after WriteFile")
	}
	if !SniffFile(path) {
		t.Fatal("SniffFile misses a snapbin artifact")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestCrashedHalfWriteRejected simulates a writer that died without
// the atomic rename discipline: a half-written file under the
// published name must fail the size/hash check on load.
func TestCrashedHalfWriteRejected(t *testing.T) {
	valid, _ := encode(t, testImage())
	path := filepath.Join(t.TempDir(), "torn.bin")
	if err := os.WriteFile(path, valid[:len(valid)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadFile(path)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn artifact: %v, want %v", err, ErrTruncated)
	}
}

// FuzzAppendLower holds AppendLower to strings.ToLower, byte for byte,
// on any string: invalid UTF-8, runes that lower into ASCII (U+0130,
// U+212A), into fewer bytes (U+1E9E) or not at all. isLowerOf must
// accept exactly that lowering, after any prefix already in dst.
func FuzzAppendLower(f *testing.F) {
	for _, s := range []string{"", "Lumen", "AT&T Services", "\xff\xfeABC", "İstanbul",
		"Kelvin", "STRAẞE", "Telefónica", "a\xc3", "�\xef\xbf", "ÆTHER"} {
		f.Add("prefix ", s)
	}
	f.Fuzz(func(t *testing.T, prefix, s string) {
		want := strings.ToLower(s)
		if got := AppendLower(nil, s); string(got) != want {
			t.Fatalf("AppendLower(%q) = %q, strings.ToLower %q", s, got, want)
		}
		if got := AppendLower([]byte(prefix), s); string(got) != prefix+want {
			t.Fatalf("AppendLower(%q, %q) = %q, want %q", prefix, s, got, prefix+want)
		}
		var scratch []byte
		if !isLowerOf([]byte(want), s, &scratch) {
			t.Fatalf("isLowerOf refuses strings.ToLower(%q) = %q", s, want)
		}
		if other := strings.ToLower(prefix); other != want && isLowerOf([]byte(other), s, &scratch) {
			t.Fatalf("isLowerOf accepts %q as the lowercase of %q (%q)", other, s, want)
		}
	})
}
