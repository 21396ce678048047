package snapbin

import (
	"strconv"
	"unicode/utf8"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
)

// The wire layout of the two responses, both rendered from the
// organization's cluster:
//
//	/v1/org: {"org":<id>,"name":…,"size":<n>,"asns":[…],"features":[…]}\n
//	/v1/as:  {"asn":<asn> + tail
//	tail:    ,"org":<the /v1/org object>,"siblings":<its "asns" array>}\n
//
// "name" and "features" are left out when empty. The bytes are those
// encoding/json writes for the same object with SetEscapeHTML(false),
// which the org-bodies and AS-tails sections store and every response
// serves.

// AppendOrg appends c's /v1/org response to dst. It allocates only
// when dst lacks the room.
func AppendOrg(dst []byte, c *cluster.Cluster) []byte {
	dst, _, _ = appendObject(dst, c)
	return append(dst, '\n')
}

// AppendAS appends the /v1/as response for a, a member of c, to dst.
// It allocates only when dst lacks the room.
func AppendAS(dst []byte, a asnum.ASN, c *cluster.Cluster) []byte {
	dst = append(dst, `{"asn":`...)
	dst = strconv.AppendUint(dst, uint64(a), 10)
	return appendTail(dst, c)
}

// appendTail appends everything of a /v1/as response for a member of c
// that follows the requested ASN's digits: the organization object, and
// its "asns" array again, copied, as "siblings".
func appendTail(dst []byte, c *cluster.Cluster) []byte {
	dst = append(dst, `,"org":`...)
	dst, lo, hi := appendObject(dst, c)
	dst = append(dst, `,"siblings":`...)
	dst = append(dst, dst[lo:hi]...)
	return append(dst, '}', '\n')
}

// appendObject appends c's organization object and reports where its
// "asns" array lies in the result.
func appendObject(dst []byte, c *cluster.Cluster) (out []byte, lo, hi int) {
	dst = append(dst, `{"org":`...)
	dst = strconv.AppendInt(dst, int64(c.ID), 10)
	if c.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = appendString(dst, c.Name)
	}
	dst = append(dst, `,"size":`...)
	dst = strconv.AppendInt(dst, int64(len(c.ASNs)), 10)
	dst = append(dst, `,"asns":`...)
	lo = len(dst)
	dst = append(dst, '[')
	for i, a := range c.ASNs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(a), 10)
	}
	dst = append(dst, ']')
	hi = len(dst)
	sep := `,"features":[`
	for f, on := range c.Features {
		if on {
			dst = append(dst, sep...)
			dst = appendString(dst, cluster.Feature(f).String())
			sep = ","
		}
	}
	if sep == "," {
		dst = append(dst, ']')
	}
	return append(dst, '}'), lo, hi
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json
// writes it with SetEscapeHTML(false): `"` and `\` backslash-escaped,
// \b \f \n \r \t by name and every other byte below 0x20 as \u00XX,
// each byte of invalid UTF-8 as \ufffd, and U+2028 and U+2029 as
// \u2028 and \u2029. Everything else, '<', '>', '&' and 0x7F
// included, is copied as it is.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendSearch appends a /v1/search response to dst: the query, the
// brownout flag when set, and each match's organization object.
func AppendSearch(dst []byte, query string, brownout bool, matches []*cluster.Cluster) []byte {
	dst = append(dst, `{"query":`...)
	dst = appendString(dst, query)
	if brownout {
		dst = append(dst, `,"brownout":true`...)
	}
	dst = append(dst, `,"matches":[`...)
	for i, c := range matches {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst, _, _ = appendObject(dst, c)
	}
	return append(dst, ']', '}', '\n')
}
