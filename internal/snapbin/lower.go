package snapbin

import (
	"unicode"
	"unicode/utf8"
)

// AppendLower appends strings.ToLower(s) to dst, byte for byte: ASCII
// letters fold in place, every other rune maps through
// unicode.ToLower, and a byte that is not valid UTF-8 becomes U+FFFD.
// It allocates only when dst lacks the room, so section 3's lowercase
// run renders straight into the writer's buffer and a search lowers a
// candidate's name into its scratch.
func AppendLower(dst []byte, s string) []byte {
	// Copy s whole and fold its ASCII prefix where it landed; from the
	// first other byte on, lower rune by rune, since a rune may change
	// length.
	n := len(dst)
	dst = append(dst, s...)
	for i := n; i < len(dst); i++ {
		c := dst[i]
		if c >= utf8.RuneSelf {
			dst = dst[:i]
			for _, r := range s[i-n:] {
				dst = utf8.AppendRune(dst, unicode.ToLower(r))
			}
			return dst
		}
		if 'A' <= c && c <= 'Z' {
			dst[i] = c + 'a' - 'A'
		}
	}
	return dst
}

// isLowerOf reports whether lower is AppendLower(nil, name). The ASCII
// prefix of name is compared where it lies; only from its first other
// byte on is name lowered, into *scratch. Lowering maps rune by rune,
// so the prefix decides nothing about the rest.
func isLowerOf(lower []byte, name string, scratch *[]byte) bool {
	n := min(len(name), len(lower))
	i := 0
	for ; i < n; i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			break
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if lower[i] != c {
			return false
		}
	}
	if i == len(name) {
		return i == len(lower)
	}
	*scratch = AppendLower((*scratch)[:0], name[i:])
	return string(lower[i:]) == string(*scratch)
}
