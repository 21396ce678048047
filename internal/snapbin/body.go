package snapbin

import (
	"bytes"
	"strconv"
)

// Body is one organization's pre-rendered /v1/org response, held once.
// Rest is the response after its leading `{"org":<id>` — from the comma
// that follows the ID through the trailing newline — so the stored
// bytes do not depend on the organization's canonical ID and survive
// the ID shifts a delta causes unchanged; responses splice the current
// ID in when they are assembled. Lo and Hi locate the "asns" array
// inside Rest, which a /v1/as response repeats as "siblings".
//
// The artifact still carries both the complete /v1/org bodies and the
// /v1/as tails (see the package comment): the writers generate both
// sections from the one copy, and the decoders verify every stored tail
// against its body instead of keeping it.
type Body struct {
	Rest   []byte
	Lo, Hi uint32
}

// The wire layout of the two responses:
//
//	/v1/org: {"org":<id> Rest
//	/v1/as:  {"asn":<asn> + tail
//	tail:    ,"org":{"org":<id> Rest-sans-newline ,"siblings": Rest[Lo:Hi] }\n
const (
	orgPrefix    = `{"org":`
	tailOrg      = `,"org":`
	tailHead     = tailOrg + orgPrefix
	tailSiblings = `,"siblings":`
	asnsKey      = `"asns":`
	featuresKey  = `,"features":`
)

// SplitBody parses a complete /v1/org body into the ID it carries and
// its ID-free Body, whose Rest aliases full. It reports false when full
// is not laid out as the serving layer renders it: `{"org":` plus a
// canonical decimal ID, and a Rest that ends in the "asns" array,
// optionally followed by a "features" array, then "}\n". The array is
// found from the end of the body, so nothing in the (escaped) name can
// be mistaken for it.
func SplitBody(full []byte) (id int, b Body, ok bool) {
	if !bytes.HasPrefix(full, []byte(orgPrefix)) {
		return 0, Body{}, false
	}
	i := len(orgPrefix)
	j := i
	for j < len(full) && j-i < 10 && full[j] >= '0' && full[j] <= '9' {
		id = id*10 + int(full[j]-'0')
		j++
	}
	if j == i || j-i > 1 && full[i] == '0' {
		return 0, Body{}, false
	}
	rest := full[j:]
	lo, hi, ok := siblingSpan(rest)
	if !ok {
		return 0, Body{}, false
	}
	return id, Body{Rest: rest, Lo: uint32(lo), Hi: uint32(hi)}, true
}

// siblingSpan locates the "asns" array in a body's Rest: the last array
// when the body carries no features, else the one before the features
// array.
func siblingSpan(rest []byte) (lo, hi int, ok bool) {
	n := len(rest)
	if n < 4 || rest[0] != ',' || rest[n-3] != ']' || rest[n-2] != '}' || rest[n-1] != '\n' {
		return 0, 0, false
	}
	hi = n - 2
	lo = bytes.LastIndexByte(rest[:hi], '[')
	if lo < 0 {
		return 0, 0, false
	}
	if bytes.HasSuffix(rest[:lo], []byte(featuresKey)) {
		hi = lo - len(featuresKey)
		if hi < 1 || rest[hi-1] != ']' {
			return 0, 0, false
		}
		if lo = bytes.LastIndexByte(rest[:hi], '['); lo < 0 {
			return 0, 0, false
		}
	}
	if !bytes.HasSuffix(rest[:lo], []byte(asnsKey)) {
		return 0, 0, false
	}
	return lo, hi, true
}

// AppendOrg appends the /v1/org response of organization id.
func (b Body) AppendOrg(dst []byte, id int) []byte {
	dst = append(dst, orgPrefix...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	return append(dst, b.Rest...)
}

// AppendTail appends everything of a /v1/as response for a member of
// organization id that follows the requested ASN's digits.
func (b Body) AppendTail(dst []byte, id int) []byte {
	dst = append(dst, tailHead...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, b.Rest[:len(b.Rest)-1]...)
	dst = append(dst, tailSiblings...)
	dst = append(dst, b.Rest[b.Lo:b.Hi]...)
	return append(dst, '}', '\n')
}

// orgLen is len(b.AppendOrg(nil, id)).
func (b Body) orgLen(id int) int {
	return len(orgPrefix) + decimalLen(id) + len(b.Rest)
}

// tailLen is len(b.AppendTail(nil, id)).
func (b Body) tailLen(id int) int {
	return len(tailHead) + decimalLen(id) + len(b.Rest) - 1 +
		len(tailSiblings) + int(b.Hi-b.Lo) + 2
}

// matchTail reports whether tail is exactly b.AppendTail(nil, id),
// comparing piece by piece in place instead of rendering the tail.
func (b Body) matchTail(tail []byte, id int) bool {
	if len(tail) != b.tailLen(id) {
		return false
	}
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(id), 10)
	for _, piece := range [...][]byte{
		[]byte(tailHead), digits, b.Rest[:len(b.Rest)-1],
		[]byte(tailSiblings), b.Rest[b.Lo:b.Hi], []byte("}\n"),
	} {
		if !bytes.Equal(tail[:len(piece)], piece) {
			return false
		}
		tail = tail[len(piece):]
	}
	return true
}

// decimalLen is the number of digits in the decimal form of id >= 0.
func decimalLen(id int) int {
	n := 1
	for id >= 10 {
		id /= 10
		n++
	}
	return n
}
