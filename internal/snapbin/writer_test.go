package snapbin

import (
	"bytes"
	"os"
	"path/filepath"
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
