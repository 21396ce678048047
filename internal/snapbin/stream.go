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
	"slices"
)

// Read decodes an artifact from r section by section: each payload is
// hashed and decoded as it arrives, and the org-bodies and AS-tails
// sections are checked blob by blob against renders of the clusters
// already decoded as they stream past, and are never kept. Nothing is
// returned until the content hash has been verified over every byte,
// and a structural error found before the end does not stop the
// hashing: an altered artifact reports ErrHashMismatch.
//
// When r reports how many bytes it holds (bytes.Reader, strings.Reader
// and bytes.Buffer do, through Len), the declared size is checked
// against it up front and section buffers are sized exactly; otherwise
// buffers grow with the bytes actually read, so a forged length cannot
// force a large allocation.
func Read(r io.Reader) (*Image, string, error) {
	avail := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		avail = int64(l.Len())
	}
	return decodeStream(r, avail)
}

// streamDecoder is the reading state of one streamed decode. It reads
// each section straight into the buffer that decodes it, so no
// intermediate read buffer is allocated or copied through.
type streamDecoder struct {
	r       io.Reader
	digest  hash.Hash
	hashing bool // the current section is covered by the content hash
	grow    bool // declared lengths are unverified: allocate as bytes arrive
	scratch []byte
	win     []byte // the window rendered sections are read through
	render  []byte // the render a blob is compared with
	err     error  // sticky read failure; ends the decode
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

	if !d.grow {
		// One scratch allocation, sized for the largest section the
		// decode reads whole, serves every one of them and then the
		// length tables of the rendered sections.
		var most uint64
		for _, sp := range spans {
			if sp.id != secOrgBodies && sp.id != secASTails {
				most = max(most, sp.length)
			}
		}
		d.scratch = make([]byte, 0, most)
	}
	img := &Image{}
	var bad error // first structural error; reported once the hash is known good
	for _, sp := range spans {
		d.hashing = sp.id != secProvenance
		switch {
		case bad != nil:
			d.skip(sp.length)
		case sp.id == secOrgBodies || sp.id == secASTails:
			bad = d.rendered(sp, &img.Orgs)
		default:
			d.scratch = d.fill(d.scratch, sp.length)
			bad = decodeSection(sp.id, d.scratch, img)
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

// readErr classifies a failed read: running out of bytes means the
// artifact is truncated; anything else is the reader's own failure.
func (d *streamDecoder) readErr(err error, what string) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %s: %v", ErrTruncated, what, err)
	}
	return err
}

// fill reads the next n bytes into buf (reusing its capacity) and feeds
// them to the digest when the section is hashed. On a read failure it
// records d.err and returns nil.
func (d *streamDecoder) fill(buf []byte, n uint64) []byte {
	if d.err != nil {
		return nil
	}
	buf = buf[:0]
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			step := n - uint64(len(buf))
			if d.grow {
				step = min(step, uint64(max(cap(buf), 64<<10)))
			}
			buf = slices.Grow(buf, int(step))
		}
		k, err := io.ReadFull(d.r, buf[len(buf):min(uint64(cap(buf)), n)])
		buf = buf[:len(buf)+k]
		if err != nil {
			d.err = d.readErr(err, "section payload")
			return nil
		}
	}
	if d.hashing {
		d.digest.Write(buf)
	}
	return buf
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

// rendered checks an org-bodies or AS-tails section against renders of
// the organizations as it streams: the count must be the number of
// organizations and the lengths must add up to the section, then each
// blob must be its organization's render, length and bytes. The blobs
// are read a window at a time into a reused buffer and compared where
// they lie; none is kept. A blob is read only once its declared length
// has matched the render, so the window is bounded by the
// organizations, never by a declared length. The whole section is
// consumed even after a mismatch, so the content hash still covers it.
func (d *streamDecoder) rendered(sp sectionSpan, orgs *Orgs) error {
	tails, what := sp.id == secASTails, "org body"
	if tails {
		what = "AS tail"
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: section %d: %s", ErrCorrupt, sp.id, fmt.Sprintf(format, args...))
	}
	n := uint64(orgs.Len())
	table := 4 + 4*n
	if sp.length < table {
		d.skip(sp.length)
		return fail("%d bytes cannot hold %d lengths", sp.length, n)
	}
	d.scratch = d.fill(d.scratch, table)
	if d.err != nil {
		return nil
	}
	left := sp.length - table // section bytes not yet read
	if c := binary.LittleEndian.Uint32(d.scratch); uint64(c) != n {
		d.skip(left)
		return fail("%d blobs for %d organizations", c, n)
	}
	lens := d.scratch[4:table]
	var total uint64
	for i := range n {
		total += uint64(binary.LittleEndian.Uint32(lens[4*i:]))
	}
	if total != left {
		d.skip(left)
		return fail("blobs span %d bytes, section holds %d", total, left)
	}
	// win[off:] holds read bytes not yet checked.
	win, off := d.win[:0], 0
	defer func() { d.win = win[:0] }()
	for i := range orgs.Len() {
		c := orgs.At(i)
		d.render = render(d.render[:0], &c, tails)
		l := len(d.render)
		if binary.LittleEndian.Uint32(lens[4*i:]) != uint32(l) {
			d.skip(left)
			return fail("%s %d disagrees with its cluster", what, i)
		}
		if len(win)-off < l {
			carry := copy(win[:cap(win)], win[off:])
			want := min(left, uint64(max(cap(win)-carry, 64<<10, l-carry)))
			win, off = slices.Grow(win[:carry], int(want)), 0
			k, err := io.ReadFull(d.r, win[carry:carry+int(want)])
			if err != nil {
				d.err = d.readErr(err, "section payload")
				return nil
			}
			win = win[:carry+k]
			if d.hashing {
				d.digest.Write(win[carry:])
			}
			left -= want
		}
		if !bytes.Equal(win[off:off+l], d.render) {
			d.skip(left)
			return fail("%s %d disagrees with its cluster", what, i)
		}
		off += l
	}
	return nil
}
