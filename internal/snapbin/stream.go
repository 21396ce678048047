package snapbin

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"slices"
	"strings"
)

// Read decodes an artifact from r section by section: each payload is
// hashed and decoded as it arrives, read through one bounded window
// straight into the tables it fills, and the org-bodies and AS-tails
// sections are checked blob by blob against renders of the clusters
// already decoded as they stream past, and are never kept. Nothing is
// returned until the content hash has been verified over every byte,
// and a structural error found before the end does not stop the
// hashing: an altered artifact reports ErrHashMismatch.
//
// When r reports how many bytes it holds (bytes.Reader, strings.Reader
// and bytes.Buffer do, through Len), the declared size is checked
// against it up front and every table is allocated once, at its exact
// size; otherwise tables grow with the bytes actually read, so a forged
// length cannot force a large allocation.
func Read(r io.Reader) (*Image, string, error) {
	avail := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		avail = int64(l.Len())
	}
	return decodeStream(r, avail)
}

const (
	// winSize is the window every section is read through. Only a
	// lowercase name or a rendered blob longer than it grows it.
	winSize = 64 << 10
	// stageChunk is the size of the chunks a run is staged in; a
	// multiple of 4, so no staged uint32 straddles two chunks.
	stageChunk = 16 << 10
)

// streamDecoder is the reading state of one streamed decode. Each
// section's bytes are read into the window, hashed as they arrive, and
// decoded from it into the tables they fill, so a decode holds of the
// artifact's bytes only the window and the staged runs.
type streamDecoder struct {
	r       io.Reader
	digest  hash.Hash
	hashing bool   // the current section is covered by the content hash
	grow    bool   // declared lengths are unverified: allocate as bytes arrive
	sec     uint32 // the section being decoded
	win     []byte // the window
	head    []byte // the bytes read into win and not yet decoded
	unread  uint64 // the section's bytes not yet read into win
	// stage holds the run being staged, in chunks every run reuses:
	// the text of a string run, whose byte total is known only once it
	// is read, or a rendered section's length table. staged counts its
	// bytes.
	stage  [][]byte
	staged int
	lower  []byte // a name's non-ASCII tail, lowered
	render []byte // the render a blob is compared with
	err    error  // sticky read failure; ends the decode
}

// decodeStream decodes from r, which holds avail bytes (-1: unknown).
func decodeStream(r io.Reader, avail int64) (*Image, string, error) {
	d := &streamDecoder{r: r, digest: sha256.New(), grow: avail < 0}
	var head [headerSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, "", d.readErr(err, "header")
	}
	count, size, wantSum, err := parseHeader(head[:])
	if err != nil {
		return nil, "", err
	}
	if avail >= 0 {
		if err := checkSize(size, uint64(avail)); err != nil {
			return nil, "", err
		}
	}
	tableEnd := uint64(headerSize) + uint64(sectionEntrySize)*uint64(count)
	if tableEnd > size {
		return nil, "", fmt.Errorf("%w: section table overruns file", ErrTruncated)
	}
	table := make([]byte, tableEnd-headerSize)
	if _, err := io.ReadFull(r, table); err != nil {
		return nil, "", d.readErr(err, "section table")
	}
	spans, err := parseTable(table, count, size)
	if err != nil {
		return nil, "", err
	}

	img := &Image{}
	var bad error // first structural error; reported once the hash is known good
	for _, sp := range spans {
		d.hashing = sp.id != secProvenance
		if bad != nil {
			d.skip(sp.length)
		} else {
			bad = d.section(sp, img)
		}
		if d.err != nil {
			return nil, "", d.err
		}
	}
	if avail < 0 {
		var one [1]byte
		if _, err := io.ReadFull(r, one[:]); err == nil {
			return nil, "", fmt.Errorf("%w: bytes beyond the declared size %d", ErrCorrupt, size)
		} else if err != io.EOF {
			return nil, "", err
		}
	}
	sum := d.digest.Sum(nil)
	if string(sum) != string(wantSum) {
		return nil, "", ErrHashMismatch
	}
	if bad != nil {
		return nil, "", bad
	}
	if err := crossCheck(img); err != nil {
		return nil, "", err
	}
	return img, hex.EncodeToString(sum), nil
}

// section decodes one section into img as it streams. After a
// structural error the rest of the section is still read and hashed,
// so the content hash covers it.
func (d *streamDecoder) section(sp sectionSpan, img *Image) error {
	d.sec, d.head, d.unread = sp.id, d.win[:0], sp.length
	var err error
	switch sp.id {
	case secProvenance:
		err = readProvenance(d, img)
	case secStats:
		err = readStats(d, img)
	case secClusters:
		err = readClusters(d, img)
	case secIndex:
		err = readIndex(d, img)
	case secTokens:
		err = readTokens(d, img)
	case secOrgBodies, secASTails:
		err = d.rendered(&img.Orgs)
	}
	if err == nil && d.left() != 0 {
		err = d.fail("%d trailing bytes", d.left())
	}
	if err != nil {
		d.skip(d.unread)
	}
	d.head, d.unread = nil, 0
	return err
}

// readErr classifies a failed read: running out of bytes means the
// artifact is truncated; anything else is the reader's own failure.
func (d *streamDecoder) readErr(err error, what string) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %s: %v", ErrTruncated, what, err)
	}
	return err
}

// skip consumes n bytes without decoding them, still hashing them.
func (d *streamDecoder) skip(n uint64) {
	if d.err != nil {
		return
	}
	sink := io.Discard
	if d.hashing {
		sink = d.digest
	}
	if _, err := io.CopyN(sink, d.r, int64(n)); err != nil {
		d.err = d.readErr(err, "section payload")
	}
}

func (d *streamDecoder) fail(format string, args ...any) error {
	return fmt.Errorf("%w: section %d: %s", ErrCorrupt, d.sec, fmt.Sprintf(format, args...))
}

// left is the number of the section's bytes not yet decoded.
func (d *streamDecoder) left() uint64 { return uint64(len(d.head)) + d.unread }

// more makes the window hold at least k undecoded bytes. It is small
// enough to inline, so a read the window already holds costs no call.
func (d *streamDecoder) more(k int) error {
	if len(d.head) >= k {
		return nil
	}
	return d.fill(k)
}

// fill reads as much of the section as fits behind the undecoded bytes
// the window holds, which must then number at least k. The window grows
// only for a k beyond it, which callers bound by what they have already
// decoded, never by a declared length alone.
func (d *streamDecoder) fill(k int) error {
	if d.err != nil {
		return d.err
	}
	if uint64(k) > d.left() {
		return d.fail("%d bytes needed, %d remain", k, d.left())
	}
	if d.win == nil {
		d.win = make([]byte, 0, winSize)
	}
	kept := copy(d.win[:cap(d.win)], d.head)
	if k > cap(d.win) {
		d.win = slices.Grow(d.win[:kept], k-kept)
	}
	win := d.win[:cap(d.win)]
	n, err := io.ReadFull(d.r, win[kept:kept+int(min(d.unread, uint64(len(win)-kept)))])
	if err != nil {
		d.err = d.readErr(err, "section payload")
		return d.err
	}
	if d.hashing {
		d.digest.Write(win[kept : kept+n])
	}
	d.head, d.unread = win[:kept+n], d.unread-uint64(n)
	return nil
}

func (d *streamDecoder) u32() (uint32, error) {
	if err := d.more(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.head)
	d.head = d.head[4:]
	return v, nil
}

func (d *streamDecoder) u64() (uint64, error) {
	if err := d.more(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.head)
	d.head = d.head[8:]
	return v, nil
}

// count reads an element count and validates count×size against the
// section's remaining bytes before the caller allocates.
func (d *streamDecoder) count(size uint64) (int, error) {
	v, err := d.u32()
	if err != nil {
		return 0, err
	}
	if uint64(v)*size > d.left() {
		return 0, d.fail("count %d exceeds %d remaining bytes", v, d.left())
	}
	return int(v), nil
}

// appendBytes appends the section's next n bytes to dst.
func (d *streamDecoder) appendBytes(dst []byte, n int) ([]byte, error) {
	for n > 0 {
		if err := d.more(1); err != nil {
			return dst, err
		}
		k := min(n, len(d.head))
		dst = append(dst, d.head[:k]...)
		d.head, n = d.head[k:], n-k
	}
	return dst, nil
}

func (d *streamDecoder) str() (string, error) {
	n, err := d.count(1)
	if err != nil {
		return "", err
	}
	b, err := d.appendBytes(nil, n)
	return string(b), err
}

// table returns an empty table for n items, n already validated
// against the section's remaining bytes. When the artifact's size is
// verified the table has room for all n; otherwise it starts empty and
// grows with the items that actually arrive.
func table[T any](d *streamDecoder, n int) []T {
	if d.grow {
		return make([]T, 0)
	}
	return make([]T, 0, n)
}

// exact returns t without spare capacity: t itself when table sized it.
func exact[T any](t []T) []T {
	if len(t) == cap(t) {
		return t
	}
	return append(make([]T, 0, len(t)), t...)
}

// words decodes the section's next n little-endian uint32s onto t.
func words[T ~uint32 | ~int32](d *streamDecoder, t []T, n int) ([]T, error) {
	for n > 0 {
		if err := d.more(4); err != nil {
			return t, err
		}
		k := min(n, len(d.head)/4)
		t = slices.Grow(t, k)
		at := len(t)
		t = t[:at+k]
		for i := range k {
			t[at+i] = T(binary.LittleEndian.Uint32(d.head[4*i:]))
		}
		d.head, n = d.head[4*k:], n-k
	}
	return t, nil
}

// stageBytes appends the section's next n bytes to the staged run. A
// chunk is allocated only when bytes arrive to fill it.
func (d *streamDecoder) stageBytes(n int) error {
	for n > 0 {
		if err := d.more(1); err != nil {
			return err
		}
		c := d.staged / stageChunk
		if c == len(d.stage) {
			d.stage = append(d.stage, make([]byte, stageChunk))
		}
		k := copy(d.stage[c][d.staged%stageChunk:], d.head[:min(n, len(d.head))])
		d.head, d.staged, n = d.head[k:], d.staged+k, n-k
	}
	return nil
}

// stagedU32 returns the i-th little-endian uint32 of the staged run.
func (d *streamDecoder) stagedU32(i int) uint32 {
	at := 4 * i
	return binary.LittleEndian.Uint32(d.stage[at/stageChunk][at%stageChunk:])
}

// strings decodes a run of n length-prefixed strings, n already
// validated against the section. The run's byte total is known only
// once it has been read, so its text is staged as it arrives and then
// copied once into the table's exact-size text.
func (d *streamDecoder) strings(n int) (Strings, error) {
	off := append(table[uint32](d, n+1), 0)
	d.staged = 0
	for range n {
		l, err := d.count(1)
		if err != nil {
			return Strings{}, err
		}
		if uint64(d.staged)+uint64(l) > math.MaxUint32 {
			return Strings{}, d.fail("string run exceeds the table's 4 GiB")
		}
		if err := d.stageBytes(l); err != nil {
			return Strings{}, err
		}
		off = append(off, uint32(d.staged))
	}
	var text strings.Builder
	text.Grow(d.staged)
	for c, rest := 0, d.staged; rest > 0; c++ {
		k := min(rest, stageChunk)
		text.Write(d.stage[c][:k])
		rest -= k
	}
	return Strings{Text: text.String(), Off: exact(off)}, nil
}

// rendered checks an org-bodies or AS-tails section against renders of
// the organizations as it streams: the count must be the number of
// organizations and the lengths, staged, must add up to the section,
// then each blob must be its organization's render, length and bytes.
// A blob is compared where it lies in the window and read only once its
// declared length has matched the render, so the window is bounded by
// the organizations, never by a declared length. None is kept.
func (d *streamDecoder) rendered(orgs *Orgs) error {
	tails, what := d.sec == secASTails, "org body"
	if tails {
		what = "AS tail"
	}
	n := orgs.Len()
	if d.left() < 4+4*uint64(n) {
		return d.fail("%d bytes cannot hold %d lengths", d.left(), n)
	}
	c, err := d.u32()
	if err != nil {
		return err
	}
	if int(c) != n {
		return d.fail("%d blobs for %d organizations", c, n)
	}
	d.staged = 0
	if err := d.stageBytes(4 * n); err != nil {
		return err
	}
	var total uint64
	for i := range n {
		total += uint64(d.stagedU32(i))
	}
	if total != d.left() {
		return d.fail("blobs span %d bytes, section holds %d", total, d.left())
	}
	for i := range n {
		org := orgs.At(i)
		d.render = render(d.render[:0], &org, tails)
		l := len(d.render)
		if d.stagedU32(i) != uint32(l) {
			return d.fail("%s %d disagrees with its cluster", what, i)
		}
		if err := d.more(l); err != nil {
			return err
		}
		if !bytes.Equal(d.head[:l], d.render) {
			return d.fail("%s %d disagrees with its cluster", what, i)
		}
		d.head = d.head[l:]
	}
	return nil
}
