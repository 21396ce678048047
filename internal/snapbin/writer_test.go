package snapbin

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestEncodeToFileByteIdentical: the single-pass streaming writer must
// produce exactly the bytes (and hash) of the three-pass Encode, so
// artifacts are interchangeable regardless of which path wrote them.
func TestEncodeToFileByteIdentical(t *testing.T) {
	img := testImage()
	want, wantHash := encode(t, img)

	path := filepath.Join(t.TempDir(), "stream.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := EncodeToFile(f, img)
	if err != nil {
		t.Fatalf("EncodeToFile: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hash != wantHash {
		t.Fatalf("EncodeToFile hash %s, Encode %s", hash, wantHash)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeToFile bytes diverge from Encode: %d vs %d bytes", len(got), len(want))
	}
}

// TestWriterSectionOrder: out-of-order or double Finish misuse fails
// loudly instead of writing a structurally broken artifact.
func TestWriterSectionOrder(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "bad.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := NewWriter(f)
	if _, err := w.Section(secStats); err == nil {
		t.Fatal("Section accepted a skipped provenance section")
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("Finish succeeded with missing sections")
	}
}

// TestReadFileMapped: the mapped load decodes to the same image and
// hash as the buffered one; bodies alias the mapping until release.
func TestReadFileMapped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.bin")
	img := testImage()
	wantHash, err := WriteFile(path, img)
	if err != nil {
		t.Fatal(err)
	}
	got, hash, release, err := ReadFileMapped(path)
	if err != nil {
		t.Fatalf("ReadFileMapped: %v", err)
	}
	if hash != wantHash {
		t.Fatalf("mapped hash %s, want %s", hash, wantHash)
	}
	if !reflect.DeepEqual(got, img) {
		t.Fatal("mapped image drifts from the written one")
	}
	if mmapSupported {
		if release == nil {
			t.Fatal("mapped load returned no release function")
		}
		// The mapping must survive the path disappearing: the ring
		// prunes artifacts that a serving snapshot may still map.
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if string(got.Bodies[0].AppendOrg(nil, 0)) != testBody0 {
			t.Fatal("mapped body unreadable after unlink")
		}
		release()
	} else if release != nil {
		t.Fatal("fallback load returned a release function")
	}
}

// TestReadFileMappedRejectsCorrupt: the mapped path verifies exactly
// like the buffered one — a flipped payload byte fails the hash check
// and the mapping is released.
func TestReadFileMappedRejectsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.bin")
	if _, err := WriteFile(path, testImage()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadFileMapped(path); !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("corrupt mapped artifact: %v, want %v", err, ErrHashMismatch)
	}
}
