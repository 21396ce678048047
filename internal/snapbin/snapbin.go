// Package snapbin defines the versioned binary snapshot format for
// serving artifacts: a single self-describing file holding everything
// internal/serve pre-computes at snapshot-build time — the packed
// ASN→cluster index, cluster membership and interned names, the
// token index with sorted posting lists, and the θ/size-histogram
// statistics, beside runs derived from the organizations (lowercase
// names, rendered /v1/org bodies and /v1/as tails) — so a daemon
// cold-starts by decoding large flat sections instead of re-parsing
// JSONL, replaying a union-find and re-tokenizing every name.
//
// # File layout
//
// All integers are little-endian.
//
//	fixed header (64 bytes):
//	  [ 0: 8]  magic "BORGSNAP"
//	  [ 8:12]  format version (uint32, currently 1)
//	  [12:16]  section count (uint32)
//	  [16:24]  total file size (uint64) — cheap truncation check
//	  [24:56]  SHA-256 content hash (see below)
//	  [56:64]  reserved, zero
//	section table: count × 20 bytes {id uint32, offset uint64, length uint64}
//	section payloads, contiguous, in table order
//
// Sections must appear with strictly ascending IDs, contiguous
// payloads (each offset is the previous end), and the last payload
// ending exactly at the file size. Version 1 requires exactly the
// sections declared below.
//
// # Derived runs: lowercase names, bodies and tails
//
// The clusters section holds, after the display names, a run of their
// lowercase forms; the org-bodies section holds every organization's
// complete /v1/org response and the AS-tails section every /v1/as
// tail. All three are pure functions of the organization
// (strings.ToLower of its name, AppendOrg, AppendAS), so each is
// derived on write, checked on read and never held: an Image holds
// none of them, the writers derive them from the organization tables
// as they stream (the lowercase run through AppendLower), and the
// decoder checks every stored lowercase name, body and tail against its
// organization where it lies. One that disagrees with its organization
// is ErrCorrupt.
//
// # Content hash
//
// The hash covers the payload bytes of every section except
// provenance, in table order. Provenance (source label, build time)
// is operational metadata: two encodings of the same logical snapshot
// — built on different machines, at different times, from a full
// build or a delta patch — produce the same content hash, which is
// what lets a replica fleet check cross-replica consistency and lets
// the delta-reload guard assert byte-level equivalence with a
// from-scratch build. The hash also rejects torn or corrupted
// artifacts: a crashed half-written file fails the size or hash check
// before anything is served.
//
// Decoding never trusts a length field before validating it against
// the bytes actually present, so truncated or adversarial inputs
// return typed errors instead of panicking or over-allocating.
package snapbin

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/vfs"
)

// Magic identifies a snapbin artifact; it is the first 8 bytes of
// every file and what SniffFile keys on.
const Magic = "BORGSNAP"

// Version is the format version this package writes and accepts.
const Version = 1

// Section IDs, in file order.
const (
	secProvenance = 1 // source label, build time (unhashed)
	secStats      = 2 // θ, histogram, health
	secClusters   = 3 // membership, names, lowercase names, features
	secIndex      = 4 // packed ASN→cluster index
	secTokens     = 5 // sorted tokens + posting lists
	secOrgBodies  = 6 // rendered /v1/org responses
	secASTails    = 7 // rendered /v1/as tails
)

var sectionIDs = []uint32{
	secProvenance, secStats, secClusters, secIndex, secTokens, secOrgBodies, secASTails,
}

const (
	headerSize       = 64
	sectionEntrySize = 20
)

// Typed decode failures. Every decode error wraps exactly one of
// these, so callers (and the fuzz harness) can distinguish a torn
// file from a corrupted one from a format mismatch.
var (
	// ErrBadMagic: the file does not start with Magic.
	ErrBadMagic = errors.New("snapbin: not a snapshot artifact (bad magic)")
	// ErrVersion: the artifact declares a format version this build
	// does not speak.
	ErrVersion = errors.New("snapbin: unsupported format version")
	// ErrTruncated: the file is shorter than its header claims — the
	// signature of a crashed half-written artifact.
	ErrTruncated = errors.New("snapbin: truncated artifact")
	// ErrCorrupt: structural damage — a malformed section table, a
	// length field pointing outside its section, an out-of-range ID, a
	// lowercase name, body or tail that disagrees with its cluster.
	ErrCorrupt = errors.New("snapbin: corrupt artifact")
	// ErrHashMismatch: the content hash does not cover the payload
	// bytes present; the artifact was altered or torn mid-section.
	ErrHashMismatch = errors.New("snapbin: content hash mismatch")
)

// Bucket mirrors one bar of the serving layer's organization-size
// histogram.
type Bucket struct {
	Lo, Hi, Orgs int
}

// Image is the portable, fully-decoded form of a serving snapshot —
// every field internal/serve needs to reconstruct its Snapshot
// without re-tokenizing. snapbin deliberately does not import the
// serve package; serve converts in both directions.
type Image struct {
	// Provenance (excluded from the content hash).
	Source   string
	LoadedAt time.Time

	// Health, as recorded by the producing run.
	HealthStatus string
	Quarantined  int
	HealthDetail string

	// Statistics.
	Theta       float64
	MultiASOrgs int
	LargestOrg  int
	Histogram   []Bucket

	// Mapping: the organizations in canonical order, as flat tables,
	// plus the packed index.
	Orgs Orgs
	Keys []asnum.ASN
	Vals []int32

	// Search index: Tokens is sorted ascending with Postings parallel.
	// Each is one flat table, so the index costs a handful of heap
	// objects however many organizations it covers.
	Tokens   Strings
	Postings Postings

	// statOrgs/statASNs are the counts the stats section declared,
	// held for the cross-section consistency check after decode.
	statOrgs, statASNs int
}

// sink serializes sections into one reused buffer, handing it to w
// whenever it passes flushSize and counting the bytes emitted, so a
// section writer appends integers and strings without allocating.
type sink struct {
	bp  *[]byte // pooled backing for buf
	buf []byte
	w   io.Writer
	n   uint64
	err error
}

const flushSize = 64 << 10

// sinkBufs recycles sink buffers across HashImage and encode calls.
var sinkBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2*flushSize)
	return &b
}}

func newSink(w io.Writer) *sink {
	bp := sinkBufs.Get().(*[]byte)
	return &sink{bp: bp, buf: (*bp)[:0], w: w}
}

// release returns the sink's buffer to the pool.
func (s *sink) release() {
	*s.bp = s.buf[:0]
	s.buf = nil
	sinkBufs.Put(s.bp)
}

// flush hands the buffered bytes to the writer.
func (s *sink) flush() {
	if len(s.buf) > 0 && s.err == nil {
		_, s.err = s.w.Write(s.buf)
	}
	s.n += uint64(len(s.buf))
	s.buf = s.buf[:0]
}

// spill flushes once the buffer passes flushSize; writers call it
// inside their loops.
func (s *sink) spill() {
	if len(s.buf) >= flushSize {
		s.flush()
	}
}

func (s *sink) u32(v uint32) { s.buf = binary.LittleEndian.AppendUint32(s.buf, v) }

func (s *sink) u64(v uint64) { s.buf = binary.LittleEndian.AppendUint64(s.buf, v) }

func (s *sink) str(v string) {
	s.u32(uint32(len(v)))
	s.buf = append(s.buf, v...)
	s.spill()
}

// strs writes every string of a table, each length-prefixed.
func (s *sink) strs(t Strings) {
	start := uint32(0)
	for _, end := range t.Off[min(len(t.Off), 1):] {
		s.str(t.Text[start:end])
		start = end
	}
}

// section serializes one section's payload to w and reports its length.
func (s *sink) section(w io.Writer, id uint32, img *Image) (uint64, error) {
	s.w, s.n = w, 0
	sectionWriters[id](s, img)
	s.flush()
	return s.n, s.err
}

// sectionWriter serializes one section's payload into a sink.
type sectionWriter func(s *sink, img *Image)

var sectionWriters = map[uint32]sectionWriter{
	secProvenance: writeProvenance,
	secStats:      writeStats,
	secClusters:   writeClusters,
	secIndex:      writeIndex,
	secTokens:     writeTokens,
	secOrgBodies:  writeOrgBodies,
	secASTails:    writeASTails,
}

func writeProvenance(s *sink, img *Image) {
	s.str(img.Source)
	s.u64(uint64(img.LoadedAt.UnixNano()))
}

func writeStats(s *sink, img *Image) {
	s.u64(math.Float64bits(img.Theta))
	s.u32(uint32(img.Orgs.Len()))
	s.u32(uint32(len(img.Keys)))
	s.u32(uint32(img.MultiASOrgs))
	s.u32(uint32(img.LargestOrg))
	s.str(img.HealthStatus)
	s.u32(uint32(img.Quarantined))
	s.str(img.HealthDetail)
	s.u32(uint32(len(img.Histogram)))
	for _, b := range img.Histogram {
		s.u32(uint32(b.Lo))
		s.u32(uint32(b.Hi))
		s.u32(uint32(b.Orgs))
	}
}

// writeClusters lays membership out columnar — counts, features,
// names, their lowercase forms, then one flat ASN pool — so the
// decoder's inner loops run over homogeneous runs. The organization
// tables already hold every column but the counts and the lowercase
// forms, which are rendered into the buffer behind a length patched in
// afterwards.
func writeClusters(s *sink, img *Image) {
	o := &img.Orgs
	s.u32(uint32(o.Len()))
	for i := range o.Len() {
		s.u32(o.Members.Off[i+1] - o.Members.Off[i])
		s.spill()
	}
	for _, b := range o.Features {
		s.buf = append(s.buf, b)
		s.spill()
	}
	s.strs(o.Names)
	start := uint32(0)
	for _, end := range o.Names.Off[min(len(o.Names.Off), 1):] {
		at := len(s.buf)
		s.u32(0)
		s.buf = AppendLower(s.buf, o.Names.Text[start:end])
		binary.LittleEndian.PutUint32(s.buf[at:], uint32(len(s.buf)-at-4))
		s.spill()
		start = end
	}
	for _, a := range o.Members.Items {
		s.u32(uint32(a))
		s.spill()
	}
}

func writeIndex(s *sink, img *Image) {
	s.u32(uint32(len(img.Keys)))
	for _, a := range img.Keys {
		s.u32(uint32(a))
		s.spill()
	}
	for _, v := range img.Vals {
		s.u32(uint32(v))
		s.spill()
	}
}

func writeTokens(s *sink, img *Image) {
	s.u32(uint32(img.Tokens.Len()))
	s.strs(img.Tokens)
	for i := range img.Postings.Len() {
		ids := img.Postings.At(i)
		s.u32(uint32(len(ids)))
		for _, id := range ids {
			s.u32(uint32(id))
		}
		s.spill()
	}
}

func writeOrgBodies(s *sink, img *Image) { writeRendered(s, img, false) }

func writeASTails(s *sink, img *Image) { writeRendered(s, img, true) }

// writeRendered emits a section of one render per organization (see
// render): the count, each render's length, then the renders. A length
// is learned by rendering past the sink's buffered bytes and cutting
// the render off again, so sizing a section allocates nothing.
func writeRendered(s *sink, img *Image, tails bool) {
	n := img.Orgs.Len()
	s.u32(uint32(n))
	for i := range n {
		c := img.Orgs.At(i)
		end := len(s.buf)
		s.buf = render(s.buf, &c, tails)
		l := len(s.buf) - end
		s.buf = s.buf[:end]
		s.u32(uint32(l))
		s.spill()
	}
	for i := range n {
		c := img.Orgs.At(i)
		s.buf = render(s.buf, &c, tails)
		s.spill()
	}
}

// render appends c's blob of an org-bodies section, or with tails of an
// AS-tails section. A direct call, unlike one through a func value,
// lets c stay on the caller's stack.
func render(dst []byte, c *cluster.Cluster, tails bool) []byte {
	if tails {
		return appendTail(dst, c)
	}
	return AppendOrg(dst, c)
}

// HashImage computes the content hash of an image: the hash the
// encoded artifact would carry. Provenance is excluded by
// construction, so the hash is a pure function of the snapshot's
// logical content.
func HashImage(img *Image) string {
	h := sha256.New()
	s := newSink(h)
	defer s.release()
	for _, id := range sectionIDs {
		if id != secProvenance {
			// Writers only fail when the sink fails; a hash never does.
			_, _ = s.section(h, id, img)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Encode writes the artifact to w and returns its content hash. The
// header is assembled before payloads stream, so the hashed sections
// are serialized twice: once through the digest (which also sizes
// them for the section table), then to w.
func Encode(w io.Writer, img *Image) (string, error) {
	s := newSink(io.Discard)
	defer s.release()
	digest := sha256.New()
	lengths := make([]uint64, len(sectionIDs))
	for i, id := range sectionIDs {
		sw := io.Writer(digest)
		if id == secProvenance {
			sw = io.Discard
		}
		n, err := s.section(sw, id, img)
		if err != nil {
			return "", err
		}
		lengths[i] = n
	}
	sum := digest.Sum(nil)
	if _, err := w.Write(header(lengths, sum)); err != nil {
		return "", err
	}
	for i, id := range sectionIDs {
		n, err := s.section(w, id, img)
		if err != nil {
			return "", err
		}
		if n != lengths[i] {
			return "", fmt.Errorf("snapbin: section %d length drifted between passes", id)
		}
	}
	return hex.EncodeToString(sum), nil
}

// header assembles the fixed header and section table for payloads of
// the given lengths and content hash.
func header(lengths []uint64, sum []byte) []byte {
	tableSize := uint64(sectionEntrySize * len(sectionIDs))
	offset := uint64(headerSize) + tableSize
	total := offset
	for _, n := range lengths {
		total += n
	}
	head := make([]byte, headerSize, headerSize+tableSize)
	copy(head, Magic)
	binary.LittleEndian.PutUint32(head[8:], Version)
	binary.LittleEndian.PutUint32(head[12:], uint32(len(sectionIDs)))
	binary.LittleEndian.PutUint64(head[16:], total)
	copy(head[24:56], sum)
	for i, id := range sectionIDs {
		head = binary.LittleEndian.AppendUint32(head, id)
		head = binary.LittleEndian.AppendUint64(head, offset)
		head = binary.LittleEndian.AppendUint64(head, lengths[i])
		offset += lengths[i]
	}
	return head
}

// WriteFile atomically persists the artifact at path: the bytes land
// in a temporary file in the same directory, are fsynced, and only
// then renamed over the destination — a crash mid-write leaves either
// the previous artifact or a stray temp file, never a torn artifact
// under the published name. The directory entry is fsynced after the
// rename so the publish itself survives power loss.
func WriteFile(path string, img *Image) (string, error) {
	return WriteFileFS(vfs.OS, path, img)
}

// WriteFileFS is WriteFile against an explicit filesystem — the seam
// the disk-chaos suites use to tear writes and fail fsyncs
// deterministically. A faulted write never promotes: the rename only
// happens after Encode, Sync, and Close all succeeded.
func WriteFileFS(fsys vfs.FS, path string, img *Image) (string, error) {
	fsys = vfs.Or(fsys)
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			f.Close()
			fsys.Remove(tmp)
		}
	}()
	// The temp file is seekable, so the single-pass section writer
	// applies: payloads stream once and the header is patched in place,
	// instead of Encode's serialize-twice dance.
	hash, err := EncodeToFile(f, img)
	if err != nil {
		return "", err
	}
	if err := f.Sync(); err != nil {
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return "", err
	}
	tmp = "" // renamed; nothing to clean up
	_ = fsys.SyncDir(dir)
	return hash, nil
}

// reader is a bounds-checked cursor over one section's payload. Every
// length it returns has already been proven to fit in the remaining
// bytes, so callers can allocate without an OOM risk from adversarial
// counts.
type reader struct {
	buf []byte
	pos int
	sec uint32
}

func (r *reader) fail(format string, args ...any) error {
	return fmt.Errorf("%w: section %d: %s", ErrCorrupt, r.sec, fmt.Sprintf(format, args...))
}

func (r *reader) remaining() int { return len(r.buf) - r.pos }

func (r *reader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, r.fail("truncated uint32 at offset %d", r.pos)
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, r.fail("truncated uint64 at offset %d", r.pos)
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}

// count reads an element count and validates count*elemSize against
// the remaining payload before the caller allocates.
func (r *reader) count(elemSize int) (int, error) {
	v, err := r.u32()
	if err != nil {
		return 0, err
	}
	n := int(v)
	if n < 0 || elemSize > 0 && n > r.remaining()/elemSize {
		return 0, r.fail("count %d exceeds %d remaining bytes", n, r.remaining())
	}
	return n, nil
}

// bytes returns the next n raw bytes as a subslice (no copy).
func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, r.fail("%d bytes requested, %d remaining", n, r.remaining())
	}
	b := r.buf[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *reader) str() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// strings reads a run of n length-prefixed strings into one table: a
// first pass validates every length and sizes the text, the second
// copies the bytes once, so the run costs two allocations whatever n
// is. n must already be validated against the payload.
func (r *reader) strings(n int) (Strings, error) {
	start, total := r.pos, 0
	for i := 0; i < n; i++ {
		l, err := r.count(1)
		if err != nil {
			return Strings{}, err
		}
		r.pos += l
		total += l
	}
	if uint64(total) > math.MaxUint32 {
		return Strings{}, r.fail("string run of %d bytes exceeds the table's 4 GiB", total)
	}
	r.pos = start
	var text strings.Builder
	text.Grow(total)
	off := make([]uint32, n+1)
	for i := 1; i <= n; i++ {
		l := int(binary.LittleEndian.Uint32(r.buf[r.pos:]))
		text.Write(r.buf[r.pos+4 : r.pos+4+l])
		r.pos += 4 + l
		off[i] = uint32(text.Len())
	}
	return Strings{Text: text.String(), Off: off}, nil
}

func (r *reader) done() error {
	if r.pos != len(r.buf) {
		return r.fail("%d trailing bytes", r.remaining())
	}
	return nil
}

// sectionSpan is one validated section-table entry.
type sectionSpan struct {
	id          uint32
	off, length uint64
}

// parseHeader validates the fixed 64-byte header and returns the
// declared section count, total size, and expected content hash.
func parseHeader(head []byte) (count uint32, size uint64, wantSum []byte, err error) {
	if string(head[:8]) != Magic {
		return 0, 0, nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(head[8:]); v != Version {
		return 0, 0, nil, fmt.Errorf("%w: file declares version %d, this build speaks %d", ErrVersion, v, Version)
	}
	count = binary.LittleEndian.Uint32(head[12:])
	size = binary.LittleEndian.Uint64(head[16:])
	if int(count) != len(sectionIDs) {
		return 0, 0, nil, fmt.Errorf("%w: %d sections declared, version %d has %d", ErrCorrupt, count, Version, len(sectionIDs))
	}
	return count, size, head[24:56:56], nil
}

// parseTable validates the section table against the contiguous-layout
// invariants: canonical IDs in order, each offset the previous end, and
// the last payload ending exactly at the declared size.
func parseTable(table []byte, count uint32, size uint64) ([]sectionSpan, error) {
	spans := make([]sectionSpan, count)
	next := uint64(headerSize) + uint64(sectionEntrySize)*uint64(count)
	for i := range spans {
		entry := table[sectionEntrySize*i:]
		id := binary.LittleEndian.Uint32(entry[0:])
		off := binary.LittleEndian.Uint64(entry[4:])
		length := binary.LittleEndian.Uint64(entry[12:])
		if id != sectionIDs[i] {
			return nil, fmt.Errorf("%w: section %d has id %d, want %d", ErrCorrupt, i, id, sectionIDs[i])
		}
		if off != next || length > size-off {
			return nil, fmt.Errorf("%w: section %d spans [%d,%d+%d) outside contiguous layout", ErrCorrupt, id, off, off, length)
		}
		spans[i] = sectionSpan{id: id, off: off, length: length}
		next = off + length
	}
	if next != size {
		return nil, fmt.Errorf("%w: sections end at %d, file size is %d", ErrCorrupt, next, size)
	}
	return spans, nil
}

// decodeSection decodes one fully-read section payload of sections 1
// to 5 into img. It copies what it keeps, so the payload buffer may be
// reused.
func decodeSection(id uint32, payload []byte, img *Image) error {
	r := &reader{buf: payload, sec: id}
	var err error
	switch id {
	case secProvenance:
		err = readProvenance(r, img)
	case secStats:
		err = readStats(r, img)
	case secClusters:
		err = readClusters(r, img)
	case secIndex:
		err = readIndex(r, img)
	case secTokens:
		err = readTokens(r, img)
	}
	if err != nil {
		return err
	}
	return r.done()
}

// checkSize compares the header's declared size with the bytes
// available.
func checkSize(declared, actual uint64) error {
	if declared > actual {
		return fmt.Errorf("%w: header declares %d bytes, file has %d", ErrTruncated, declared, actual)
	}
	if declared < actual {
		return fmt.Errorf("%w: %d bytes beyond the declared size %d", ErrCorrupt, actual-declared, declared)
	}
	return nil
}

func readProvenance(r *reader, img *Image) error {
	var err error
	if img.Source, err = r.str(); err != nil {
		return err
	}
	ns, err := r.u64()
	if err != nil {
		return err
	}
	img.LoadedAt = time.Unix(0, int64(ns))
	return nil
}

func readStats(r *reader, img *Image) error {
	bits, err := r.u64()
	if err != nil {
		return err
	}
	img.Theta = math.Float64frombits(bits)
	orgs, err := r.u32()
	if err != nil {
		return err
	}
	asns, err := r.u32()
	if err != nil {
		return err
	}
	// The counts are cross-checked against the cluster and index
	// sections once every section has decoded.
	img.statOrgs, img.statASNs = int(orgs), int(asns)
	multi, err := r.u32()
	if err != nil {
		return err
	}
	largest, err := r.u32()
	if err != nil {
		return err
	}
	img.MultiASOrgs, img.LargestOrg = int(multi), int(largest)
	if img.HealthStatus, err = r.str(); err != nil {
		return err
	}
	q, err := r.u32()
	if err != nil {
		return err
	}
	img.Quarantined = int(q)
	if img.HealthDetail, err = r.str(); err != nil {
		return err
	}
	nb, err := r.count(12)
	if err != nil {
		return err
	}
	img.Histogram = make([]Bucket, nb)
	for i := range img.Histogram {
		lo, err := r.u32()
		if err != nil {
			return err
		}
		hi, err := r.u32()
		if err != nil {
			return err
		}
		orgs, err := r.u32()
		if err != nil {
			return err
		}
		img.Histogram[i] = Bucket{Lo: int(lo), Hi: int(hi), Orgs: int(orgs)}
	}
	return nil
}

func readClusters(r *reader, img *Image) error {
	n, err := r.count(4)
	if err != nil {
		return err
	}
	// The counts become the member table's offsets.
	off := make([]uint32, n+1)
	var total uint64
	for i := range n {
		c, err := r.u32()
		if err != nil {
			return err
		}
		if total += uint64(c); total > math.MaxUint32 {
			return r.fail("member counts exceed the table's 4 Gi entries")
		}
		off[i+1] = uint32(total)
	}
	featBytes, err := r.bytes(n)
	if err != nil {
		return err
	}
	for i, b := range featBytes {
		if b>>cluster.NumFeatures != 0 {
			return r.fail("organization %d has unknown feature bits %#x", i, b)
		}
	}
	names, err := r.strings(n)
	if err != nil {
		return err
	}
	// The lowercase run is derived from the names: each is checked where
	// it lies, and none is kept.
	var scratch []byte
	for i := range n {
		l, err := r.count(1)
		if err != nil {
			return err
		}
		lower, err := r.bytes(l)
		if err != nil {
			return err
		}
		if !isLowerOf(lower, names.At(i), &scratch) {
			return r.fail("lowercase name %d disagrees with its name", i)
		}
	}
	if total > uint64(r.remaining()/4) {
		return r.fail("ASN pool needs %d entries, %d bytes remain", total, r.remaining())
	}
	raw, err := r.bytes(4 * int(total))
	if err != nil {
		return err
	}
	pool := make([]asnum.ASN, total)
	for i := range pool {
		pool[i] = asnum.ASN(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	img.Orgs = Orgs{
		Names:    names,
		Members:  Members{Items: pool, Off: off},
		Features: bytes.Clone(featBytes),
	}
	return nil
}

func readIndex(r *reader, img *Image) error {
	n, err := r.count(8)
	if err != nil {
		return err
	}
	raw, err := r.bytes(8 * n)
	if err != nil {
		return err
	}
	img.Keys = make([]asnum.ASN, n)
	img.Vals = make([]int32, n)
	for i := 0; i < n; i++ {
		img.Keys[i] = asnum.ASN(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	vals := raw[4*n:]
	for i := 0; i < n; i++ {
		img.Vals[i] = int32(binary.LittleEndian.Uint32(vals[4*i:]))
	}
	return nil
}

func readTokens(r *reader, img *Image) error {
	n, err := r.count(5) // each token: length prefix + ≥0 bytes + posting count
	if err != nil {
		return err
	}
	if img.Tokens, err = r.strings(n); err != nil {
		return err
	}
	text, off := img.Tokens.Text, img.Tokens.Off
	for i := 2; i <= n; i++ {
		if text[off[i-2]:off[i-1]] >= text[off[i-1]:off[i]] {
			return r.fail("tokens not strictly ascending at %d", i-1)
		}
	}
	// The posting lists fill one table the same way: a first pass
	// validates the counts and sizes the slab, the second fills it.
	start, total := r.pos, 0
	for i := 0; i < n; i++ {
		c, err := r.count(4)
		if err != nil {
			return err
		}
		if _, err := r.bytes(4 * c); err != nil {
			return err
		}
		total += c
	}
	r.pos = start
	p := Postings{Items: make([]int32, total), Off: make([]uint32, n+1)}
	at := 0
	for i := 1; i <= n; i++ {
		c, _ := r.count(4)
		raw, _ := r.bytes(4 * c)
		for j := range c {
			p.Items[at+j] = int32(binary.LittleEndian.Uint32(raw[4*j:]))
		}
		at += c
		p.Off[i] = uint32(at)
	}
	img.Postings = p
	return nil
}

// crossCheck validates the relationships between sections that no
// single section decoder can see: declared counts agree, per-cluster
// tables are parallel, and every posting or index val names a real
// cluster. Membership-level verification (index ↔ member table) is
// cluster.Restore's job; this keeps slice indexing in the serving
// layer provably in-bounds.
func crossCheck(img *Image) error {
	n := img.Orgs.Len()
	if img.statOrgs != n {
		return fmt.Errorf("%w: stats declare %d orgs, clusters section has %d", ErrCorrupt, img.statOrgs, n)
	}
	if img.statASNs != len(img.Keys) {
		return fmt.Errorf("%w: stats declare %d networks, index has %d", ErrCorrupt, img.statASNs, len(img.Keys))
	}
	if len(img.Vals) != len(img.Keys) {
		return fmt.Errorf("%w: %d index keys but %d vals", ErrCorrupt, len(img.Keys), len(img.Vals))
	}
	if img.Orgs.Names.Len() != n || img.Orgs.Members.Len() != n {
		return fmt.Errorf("%w: per-cluster tables disagree: %d clusters, %d names, %d member lists",
			ErrCorrupt, n, img.Orgs.Names.Len(), img.Orgs.Members.Len())
	}
	for i, v := range img.Vals {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("%w: index val %d out of range at %d", ErrCorrupt, v, i)
		}
	}
	for ti := range img.Postings.Len() {
		ids := img.Postings.At(ti)
		for j, id := range ids {
			if id < 0 || int(id) >= n {
				return fmt.Errorf("%w: token %q posting %d out of range", ErrCorrupt, img.Tokens.At(ti), id)
			}
			if j > 0 && ids[j-1] >= id {
				return fmt.Errorf("%w: token %q postings not strictly ascending", ErrCorrupt, img.Tokens.At(ti))
			}
		}
	}
	return nil
}

// ReadFile loads and decodes an artifact through the streaming decoder
// (see Read).
func ReadFile(path string) (*Image, string, error) {
	return ReadFileFS(vfs.OS, path)
}

// ReadFileFS is ReadFile against an explicit filesystem, so scrubbers
// and chaos tests observe exactly the bytes that filesystem serves.
// The file's size is checked against the header before any section is
// read, so section buffers are sized exactly.
func ReadFileFS(fsys vfs.FS, path string) (*Image, string, error) {
	f, err := vfs.Or(fsys).Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, "", err
	}
	return decodeStream(f, st.Size())
}

// SniffFile reports whether path starts with the snapbin magic — the
// cheap test a source uses to prefer the binary load path over a
// JSONL rebuild.
func SniffFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return false
	}
	return string(head[:]) == Magic
}
