// Streaming artifact writer: sections are produced one at a time into
// a seekable file, hashed as they stream, and the header is patched in
// place at the end. Unlike Encode — which serializes every section
// once through the digest (to size the table and learn the hash) before
// the output pass — the Writer serializes each byte exactly once, and a
// producer can emit a section incrementally without materializing the
// full Image first.
package snapbin

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"

	"github.com/nu-aqualab/borges/internal/vfs"
)

// Writer streams one snapbin artifact section-at-a-time to a seekable
// file. Usage: NewWriter, then for each canonical section ID in order
// call Section and write the payload to the returned sink, then
// Finish. The caller owns Sync/Close of the underlying file.
type Writer struct {
	f       vfs.File
	bw      *bufio.Writer
	digest  hash.Hash
	lengths []uint64
	next    int  // index into sectionIDs of the section being written
	open    bool // a Section call is active
	err     error
}

// NewWriter starts an artifact at the file's current position (which
// must be 0: the header patch at Finish seeks to the file start). A
// placeholder header and section table are written immediately so the
// first payload byte lands at its final offset.
func NewWriter(f vfs.File) *Writer {
	w := &Writer{
		f:       f,
		bw:      bufio.NewWriterSize(f, 1<<20),
		digest:  sha256.New(),
		lengths: make([]uint64, len(sectionIDs)),
	}
	blank := make([]byte, headerSize+sectionEntrySize*len(sectionIDs))
	if _, err := w.bw.Write(blank); err != nil {
		w.err = err
	}
	return w
}

// Section begins the next section's payload and returns the sink to
// write it to. IDs must arrive in canonical order (sectionIDs); the
// previous section is sealed by the call.
func (w *Writer) Section(id uint32) (io.Writer, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.open {
		w.next++
	}
	if w.next >= len(sectionIDs) || sectionIDs[w.next] != id {
		w.err = fmt.Errorf("snapbin: section %d out of order (want %v at position %d)", id, sectionIDs[min(w.next, len(sectionIDs)-1)], w.next)
		return nil, w.err
	}
	w.open = true
	return sectionSink{w}, nil
}

// sectionSink routes payload bytes to the buffered file and, for
// hashed sections, the running digest.
type sectionSink struct{ w *Writer }

func (s sectionSink) Write(p []byte) (int, error) {
	w := s.w
	if w.err != nil {
		return 0, w.err
	}
	if _, err := w.bw.Write(p); err != nil {
		w.err = err
		return 0, err
	}
	if sectionIDs[w.next] != secProvenance {
		w.digest.Write(p)
	}
	w.lengths[w.next] += uint64(len(p))
	return len(p), nil
}

// Finish seals the last section, flushes the payload bytes, and
// patches the real header and section table over the placeholder. It
// returns the content hash. The file is left positioned at its start;
// the caller still owns Sync and Close.
func (w *Writer) Finish() (string, error) {
	if w.err != nil {
		return "", w.err
	}
	if !w.open || w.next != len(sectionIDs)-1 {
		w.err = fmt.Errorf("snapbin: Finish after %d of %d sections", w.next, len(sectionIDs))
		return "", w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return "", err
	}
	sum := w.digest.Sum(nil)
	head := header(w.lengths, sum)
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		w.err = err
		return "", err
	}
	if _, err := w.f.Write(head); err != nil {
		w.err = err
		return "", err
	}
	w.err = fmt.Errorf("snapbin: writer already finished")
	return hex.EncodeToString(sum), nil
}

// EncodeToFile streams an image into a seekable file through the
// section Writer: one serialization pass total, versus Encode's two
// (digest, output). Sections are built in the same reused buffer
// HashImage uses, so the pass allocates nothing per field.
func EncodeToFile(f vfs.File, img *Image) (string, error) {
	w := NewWriter(f)
	s := newSink(nil)
	defer s.release()
	for _, id := range sectionIDs {
		sec, err := w.Section(id)
		if err != nil {
			return "", err
		}
		if _, err := s.section(sec, id, img); err != nil {
			return "", err
		}
	}
	return w.Finish()
}
