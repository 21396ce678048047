package snapbin

import (
	"slices"
	"strings"
)

// Strings is a table of strings stored back to back in one string:
// string i is Text[Off[i]:Off[i+1]]. Off holds Len()+1 ascending
// offsets, the first 0 and the last len(Text), so a table of any
// length is two heap objects, and a string taken from it aliases Text
// instead of allocating. Scans walk Off with a running start rather
// than calling At per element.
type Strings struct {
	Text string
	Off  []uint32
}

// Len is the number of strings in the table.
func (t Strings) Len() int { return max(len(t.Off)-1, 0) }

// At returns string i.
func (t Strings) At(i int) string { return t.Text[t.Off[i]:t.Off[i+1]] }

// StringsBuilder assembles a Strings table one string at a time,
// copying each string's bytes once.
type StringsBuilder struct {
	text strings.Builder
	off  []uint32
}

// Grow reserves room for n more strings holding bytes bytes in all, so
// that a table sized up front holds no spare capacity.
func (b *StringsBuilder) Grow(n, bytes int) {
	b.text.Grow(bytes)
	b.off = slices.Grow(b.off, n+1)
}

// Add appends s as the table's next string. The table's text is capped
// at 4 GiB by its uint32 offsets; callers check their input's size
// first (see serve.NewSnapshot).
func (b *StringsBuilder) Add(s string) {
	if len(b.off) == 0 {
		b.off = append(b.off, 0)
	}
	b.text.WriteString(s)
	b.off = append(b.off, uint32(b.text.Len()))
}

// Table returns the strings added so far. The builder must not be used
// afterwards.
func (b *StringsBuilder) Table() Strings {
	if len(b.off) == 0 {
		b.off = append(b.off, 0)
	}
	return Strings{Text: b.text.String(), Off: b.off}
}

// Postings is a table of int32 lists stored back to back in one slab:
// list i is IDs[Off[i]:Off[i+1]]. Off holds Len()+1 ascending offsets,
// the first 0, so a table of any length is two heap objects.
type Postings struct {
	IDs []int32
	Off []uint32
}

// Len is the number of lists in the table.
func (p Postings) Len() int { return max(len(p.Off)-1, 0) }

// At returns list i, capped so that appending to it copies instead of
// overwriting the next list.
func (p Postings) At(i int) []int32 {
	lo, hi := p.Off[i], p.Off[i+1]
	return p.IDs[lo:hi:hi]
}

// Append adds ids as the table's next list.
func (p *Postings) Append(ids ...int32) {
	if len(p.Off) == 0 {
		p.Off = append(p.Off, 0)
	}
	p.IDs = append(p.IDs, ids...)
	p.Off = append(p.Off, uint32(len(p.IDs)))
}
