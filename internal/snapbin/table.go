package snapbin

import (
	"slices"
	"strings"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
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

// Lists is a table of lists stored back to back in one slab: list i is
// Items[Off[i]:Off[i+1]]. Off holds Len()+1 ascending offsets, the
// first 0, so a table of any length is two heap objects.
type Lists[T any] struct {
	Items []T
	Off   []uint32
}

// Postings holds a token index's posting lists: ascending organization
// IDs per token.
type Postings = Lists[int32]

// Members holds organizations' member lists: ascending ASNs per
// organization.
type Members = Lists[asnum.ASN]

// Len is the number of lists in the table.
func (p Lists[T]) Len() int { return max(len(p.Off)-1, 0) }

// At returns list i, capped so that appending to it copies instead of
// overwriting the next list.
func (p Lists[T]) At(i int) []T {
	lo, hi := p.Off[i], p.Off[i+1]
	return p.Items[lo:hi:hi]
}

// Append adds items as the table's next list.
func (p *Lists[T]) Append(items ...T) {
	if len(p.Off) == 0 {
		p.Off = append(p.Off, 0)
	}
	p.Items = append(p.Items, items...)
	p.Off = append(p.Off, uint32(len(p.Items)))
}

// Orgs holds a snapshot's organizations in canonical order as three
// flat tables: organization i (its ID is i) is named Names.At(i), has
// the members Members.At(i), and carries in Features[i] bit f for each
// cluster.Feature f that contributed to it. However many organizations
// it holds, the table is five heap objects.
type Orgs struct {
	Names    Strings
	Members  Members
	Features []byte
}

// Len is the number of organizations.
func (o *Orgs) Len() int { return len(o.Features) }

// At returns organization i as a cluster value whose name and members
// alias the tables. Renderers take its address; the value stays on the
// caller's stack.
func (o *Orgs) At(i int) cluster.Cluster {
	c := cluster.Cluster{ID: i, Name: o.Names.At(i), ASNs: o.Members.At(i)}
	for f := range c.Features {
		c.Features[f] = o.Features[i]&(1<<f) != 0
	}
	return c
}

// OrgsBuilder assembles an Orgs table one organization at a time.
type OrgsBuilder struct {
	names    StringsBuilder
	members  Members
	features []byte
}

// Grow reserves room for n more organizations with asns members and
// nameBytes bytes of names in all.
func (b *OrgsBuilder) Grow(n, asns, nameBytes int) {
	b.names.Grow(n, nameBytes)
	b.members.Items = slices.Grow(b.members.Items, asns)
	b.members.Off = slices.Grow(b.members.Off, n+1)
	b.features = slices.Grow(b.features, n)
}

// Add appends c as the next organization, copying its name and
// members. c's ID is not stored: it is the organization's position.
func (b *OrgsBuilder) Add(c *cluster.Cluster) {
	b.names.Add(c.Name)
	b.members.Append(c.ASNs...)
	var bits byte
	for f, on := range c.Features {
		if on {
			bits |= 1 << f
		}
	}
	b.features = append(b.features, bits)
}

// Table returns the organizations added so far. The builder must not be
// used afterwards.
func (b *OrgsBuilder) Table() Orgs {
	if len(b.members.Off) == 0 {
		b.members.Off = append(b.members.Off, 0)
	}
	return Orgs{Names: b.names.Table(), Members: b.members, Features: b.features}
}
