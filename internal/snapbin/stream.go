package snapbin

import (
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
// hashed and decoded as it arrives, the org-bodies payload becomes the
// image's body arena, and the AS-tails section is checked against the
// bodies blob by blob as it streams past and is never kept. Nothing is
// returned until the content hash has been verified over every byte,
// and a structural error found before the end does not stop the
// hashing: an altered artifact reports ErrHashMismatch, exactly as
// Decode would.
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
	err     error // sticky read failure; ends the decode
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
		// decode reads whole and does not keep, serves every one of
		// them and then the tails windows.
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
		case sp.id == secASTails:
			bad = d.tails(sp.length, img.Bodies)
		case sp.id == secOrgBodies:
			// A fresh buffer: the bodies alias it for the image's life.
			bad = decodeSection(sp.id, d.fill(nil, sp.length), img)
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

// tails checks an AS-tails section of length bytes against bodies as it
// streams: the count and length table must match what the bodies
// generate, then the blobs are read into the reused scratch buffer a
// window at a time and each is compared piece by piece where it lies.
// The whole section is consumed even after a mismatch, so the content
// hash still covers it.
func (d *streamDecoder) tails(length uint64, bodies []Body) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: section %d: %s", ErrCorrupt, secASTails, fmt.Sprintf(format, args...))
	}
	n := uint64(len(bodies))
	table := 4 + 4*n
	if length < table {
		d.skip(length)
		return fail("%d bytes cannot hold %d tail lengths", length, n)
	}
	d.scratch = d.fill(d.scratch, table)
	if d.err != nil {
		return nil
	}
	var bad error
	if c := binary.LittleEndian.Uint32(d.scratch); uint64(c) != n {
		bad = fail("%d tails for %d bodies", c, n)
	}
	var total uint64
	for i := 0; bad == nil && i < len(bodies); i++ {
		l := binary.LittleEndian.Uint32(d.scratch[4+4*i:])
		if int(l) != bodies[i].tailLen(i) {
			bad = fail("AS tail %d disagrees with its org body", i)
		}
		total += uint64(l)
	}
	if bad == nil && total != length-table {
		bad = fail("tails span %d bytes, section holds %d", total, length-table)
	}
	if bad != nil {
		d.skip(length - table)
		return bad
	}
	// win[off:] holds read bytes not yet checked; left counts the
	// section's bytes not yet read. A window is at least 64 KiB and at
	// least one tail, so its size is bounded by the bodies, never by a
	// declared length.
	win, off, left := d.scratch[:0], 0, total
	for i := range bodies {
		l := bodies[i].tailLen(i)
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
		if bad == nil && !bodies[i].matchTail(win[off:off+l], i) {
			bad = fail("AS tail %d disagrees with its org body", i)
		}
		off += l
	}
	d.scratch = win
	return bad
}
