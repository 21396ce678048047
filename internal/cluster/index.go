package cluster

import (
	"github.com/nu-aqualab/borges/internal/asnum"
)

// asnPageShift selects the two-level index page: all ASNs sharing the
// same high 16 bits land on one page of the sorted key slice.
const asnPageShift = 16

// pageIndexMin is the network count below which the two-level page
// index is skipped: a plain binary search over a few thousand keys
// already fits in cache and the page table would dominate the mapping's
// footprint.
const pageIndexMin = 1 << 12

// Index is the packed ASN → organization lookup index of a mapping or
// a serving snapshot: keys holds every member ASN ascending and vals
// the owning organization's ID at the same position. For large indexes
// a second level (pages) maps the high 16 bits of an ASN to the key
// range holding that page, so a lookup is a bounded binary search over
// a cache-resident span. An Index is immutable once built and is
// shared by value: copies alias the same slices.
type Index struct {
	keys []asnum.ASN
	vals []int32
	// pages[p] is the first position in keys whose key has high bits
	// p; pages[len(pages)-1] == len(keys). Nil for small indexes.
	pages []int32
}

// newIndex wraps ascending keys and their vals, adding the page table
// when the index is large enough to need one.
func newIndex(keys []asnum.ASN, vals []int32) Index {
	x := Index{keys: keys, vals: vals}
	if len(keys) >= pageIndexMin {
		x.pages = make([]int32, int(keys[len(keys)-1]>>asnPageShift)+2)
		for _, a := range keys {
			x.pages[int(a>>asnPageShift)+1]++
		}
		for p := 1; p < len(x.pages); p++ {
			x.pages[p] += x.pages[p-1]
		}
	}
	return x
}

// Len returns the number of indexed networks.
func (x Index) Len() int { return len(x.keys) }

// Keys returns every indexed ASN, ascending. Callers must treat the
// slice as read-only.
func (x Index) Keys() []asnum.ASN { return x.keys }

// Vals returns the organization ID of each key, position for position.
// Callers must treat the slice as read-only.
func (x Index) Vals() []int32 { return x.vals }

// Lookup returns the ID of the organization holding a, and whether a
// is indexed at all.
func (x Index) Lookup(a asnum.ASN) (int, bool) {
	i := x.position(a)
	if i < 0 {
		return 0, false
	}
	return int(x.vals[i]), true
}

// position returns the position of a in the sorted keys, or -1.
func (x Index) position(a asnum.ASN) int {
	lo, hi := 0, len(x.keys)
	if x.pages != nil {
		p := int(a >> asnPageShift)
		if p >= len(x.pages)-1 {
			return -1
		}
		lo, hi = int(x.pages[p]), int(x.pages[p+1])
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.keys[mid] < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(x.keys) && x.keys[lo] == a {
		return lo
	}
	return -1
}
