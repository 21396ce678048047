package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/nu-aqualab/borges/internal/faultinject"
	"github.com/nu-aqualab/borges/internal/vfs"
)

// flipValueByte corrupts one byte inside the base64 value region of
// the log line holding key — the framing and key stay intact, so only
// the per-record content hash can catch the damage.
func flipValueByte(t *testing.T, path, key string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	found := false
	for _, line := range bytes.Split(data, []byte("\n")) {
		if bytes.Contains(line, []byte(`"k":"`+key+`"`)) {
			i := bytes.Index(line, []byte(`"v":"`))
			if i < 0 {
				t.Fatalf("no value field in line for %s", key)
			}
			pos := i + len(`"v":"`)
			// Swap one base64 character for a different one: the line
			// stays valid JSON and valid base64, but decodes to
			// different bytes than the recorded hash covers.
			if line[pos] == 'A' {
				line[pos] = 'B'
			} else {
				line[pos] = 'A'
			}
			found = true
		}
		out = append(out, line)
	}
	if !found {
		t.Fatalf("no log line for key %s", key)
	}
	if err := os.WriteFile(path, bytes.Join(out, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptRecordIsMissAndHeals: flipping one byte inside a record's
// value turns that lookup into a counted miss — the other records are
// untouched — and the next Put writes a fresh intact line.
func TestCorruptRecordIsMissAndHeals(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir, MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("payload-"), 64)
	if err := c.Put("victim", big); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("bystander", []byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	flipValueByte(t, filepath.Join(dir, "entries.jsonl"), "victim")

	// Reopen with a tiny memory tier so both keys must come from disk.
	c, err = New(Options{Dir: dir, MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Get("victim"); ok {
		t.Fatal("corrupt record served as a hit")
	}
	if got, ok := c.Get("bystander"); !ok || string(got) != "intact" {
		t.Fatalf("bystander record damaged by victim's corruption: %q, %v", got, ok)
	}
	st := c.Stats()
	if st.CorruptRecords != 1 {
		t.Fatalf("CorruptRecords = %d, want 1", st.CorruptRecords)
	}
	if st.DiskEntries != 1 {
		t.Fatalf("DiskEntries = %d, want 1 (victim dropped from index)", st.DiskEntries)
	}
	// A second lookup is a plain miss, not a second corruption count.
	if _, ok := c.Get("victim"); ok {
		t.Fatal("dropped record reappeared")
	}
	if st := c.Stats(); st.CorruptRecords != 1 {
		t.Fatalf("CorruptRecords after second miss = %d, want 1", st.CorruptRecords)
	}

	// The next Put re-appends; a fresh process sees the healed record.
	if err := c.Put("victim", big); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c, err = New(Options{Dir: dir, MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, ok := c.Get("victim"); !ok || !bytes.Equal(got, big) {
		t.Fatal("healed record not readable after reopen")
	}
}

// TestCacheFaultFS: the disk tier runs against the injected fault
// filesystem; a forced short write on the log surfaces as a Put error
// instead of silently truncated durable state.
func TestCacheFaultFS(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFS(vfs.OS, dir, faultinject.FSConfig{
		Seed:  7,
		Force: map[string]faultinject.FSKind{"entries.jsonl": faultinject.FSKindShortWrite},
	})
	c, err := New(Options{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("k", bytes.Repeat([]byte("x"), 4096)); err == nil {
		t.Fatal("short write on the log must surface as a Put error")
	}
	if ffs.Stats().Injected == 0 {
		t.Fatal("fault filesystem injected nothing")
	}
	// The memory tier still serves the value.
	if got, ok := c.Get("k"); !ok || len(got) != 4096 {
		t.Fatalf("memory tier lost the value: %v", ok)
	}
}
