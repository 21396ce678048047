// Package urlmatch provides the URL and domain analysis used by Borges's
// web-based inference (§4.3): canonicalization of reported and final
// URLs, extraction of registrable domains and brand labels ("the same
// subdomain", e.g. www.orange.es and www.orange.pl share "orange"), the
// manually curated blocklists of Appendix D, and the final-URL matching
// module that groups networks whose websites lead — directly or through
// refreshes and redirects — to the same destination.
package urlmatch

import (
	"fmt"
	"net"
	"net/url"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Canonicalize normalizes a reported or final website URL so that
// equality comparison is meaningful:
//
//   - a missing scheme defaults to https
//   - scheme and host are lowercased
//   - default ports (:80 for http, :443 for https) are stripped
//   - the fragment is dropped
//   - an empty path becomes "/" and trailing slashes are collapsed
//
// Query strings are preserved: some operators report distinct
// language-selection queries on a shared host. Their bytes that are not
// valid UTF-8, and any whitespace ending the query, are percent-encoded,
// so the canonical form is valid UTF-8 (it survives a JSON round trip
// unchanged) and a fixed point (Canonicalize trims the whitespace it
// would otherwise end with).
func Canonicalize(raw string) (string, error) {
	_, canon, err := canonicalURL(raw)
	return canon, err
}

// canonicalURL is Canonicalize, also returning the canonical URL
// parsed.
func canonicalURL(raw string) (*url.URL, string, error) {
	s := strings.TrimSpace(raw)
	if s == "" {
		return nil, "", fmt.Errorf("urlmatch: empty URL")
	}
	if !strings.Contains(s, "://") {
		s = "https://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return nil, "", fmt.Errorf("urlmatch: parse %q: %w", raw, err)
	}
	host, err := checkURL(u, raw)
	if err != nil {
		return nil, "", err
	}
	return u, normalize(u, host), nil
}

// Resolve resolves ref against base and canonicalizes the result: it
// returns what Canonicalize returns for base.ResolveReference(ref).String(),
// and the canonical form parsed. When printing the resolved URL and
// parsing it back would give the same URL (it has a host, is not
// opaque, and canonicalization leaves its query alone), Resolve
// normalizes it in place instead, which spares a crawl a printed string
// and a parsed URL per redirect target and favicon link.
func Resolve(base, ref *url.URL) (*url.URL, string, error) {
	u := base.ResolveReference(ref)
	if u.Opaque == "" && u.Host != "" && canonicalQuery(u.RawQuery) == u.RawQuery {
		if host, err := checkURL(u, ""); err == nil {
			return u, normalize(u, host), nil
		}
	}
	return canonicalURL(u.String())
}

// checkURL returns u's lowercased host, or an error naming raw when u's
// scheme is not http or https or its host is not valid.
func checkURL(u *url.URL, raw string) (string, error) {
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("urlmatch: unsupported scheme %q in %q", u.Scheme, raw)
	}
	host := strings.ToLower(u.Hostname())
	if !validHostname(host) {
		return "", fmt.Errorf("urlmatch: invalid host %q in %q", host, raw)
	}
	return host, nil
}

// normalize rewrites a URL that checkURL accepted, host being its
// lowercased host, into its canonical form in place, and returns that
// form printed.
func normalize(u *url.URL, host string) string {
	if strings.Contains(host, ":") {
		// IPv6 literals travel bracketed in the authority.
		host = "[" + host + "]"
	}
	port := u.Port()
	if (u.Scheme == "http" && port == "80") || (u.Scheme == "https" && port == "443") {
		port = ""
	}
	if port != "" {
		host = host + ":" + port
	}
	u.Host = host
	u.Fragment, u.RawFragment = "", ""
	u.User = nil
	// Normalize on the decoded path; String() re-encodes it canonically
	// (clearing RawPath drops any non-canonical original escaping).
	path := u.Path
	if path == "" {
		path = "/"
	}
	for strings.HasSuffix(path, "//") {
		path = path[:len(path)-1]
	}
	if path != "/" {
		path = strings.TrimSuffix(path, "/")
	}
	u.RawPath = ""
	u.Path = path
	u.RawQuery = canonicalQuery(u.RawQuery)
	return u.String()
}

// canonicalQuery percent-encodes the bytes of a raw query that would
// not survive the canonical form's round trips: bytes that are not
// valid UTF-8 (JSON rewrites them to U+FFFD) and whitespace ending the
// query (Canonicalize trims it). Valid UTF-8 elsewhere and existing
// escapes are left alone.
func canonicalQuery(q string) string {
	end := len(q)
	for end > 0 {
		r, size := utf8.DecodeLastRuneInString(q[:end])
		if !unicode.IsSpace(r) {
			break
		}
		end -= size
	}
	if end == len(q) && utf8.ValidString(q) {
		return q
	}
	const hexDigits = "0123456789ABCDEF"
	b := make([]byte, 0, len(q)+8)
	for i := 0; i < len(q); {
		r, size := utf8.DecodeRuneInString(q[i:])
		if i < end && (r != utf8.RuneError || size > 1) {
			b = append(b, q[i:i+size]...)
		} else {
			for _, c := range []byte(q[i : i+size]) {
				b = append(b, '%', hexDigits[c>>4], hexDigits[c&15])
			}
		}
		i += size
	}
	return string(b)
}

// validHostname accepts DNS-style names (letters, digits, dots, dashes,
// underscores; at least one alphanumeric) and IPv6 literals.
func validHostname(host string) bool {
	if host == "" {
		return false
	}
	if strings.Contains(host, ":") {
		return net.ParseIP(host) != nil
	}
	hasAlnum := false
	for _, r := range host {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			hasAlnum = true
		case r == '.' || r == '-' || r == '_':
		default:
			return false
		}
	}
	return hasAlnum
}

// Host extracts the lowercased hostname from a URL (with or without
// scheme), or "" if unparsable.
func Host(raw string) string {
	s := strings.TrimSpace(raw)
	if s == "" {
		return ""
	}
	if !strings.Contains(s, "://") {
		s = "https://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Hostname())
}

// multiLabelSuffixes is an embedded subset of the Public Suffix List
// covering the multi-label public suffixes that occur in PeeringDB
// website fields. Single-label TLDs (com, net, de, …) are handled
// implicitly. The set errs on the side of common ccTLD second-level
// registries.
var multiLabelSuffixes = map[string]bool{
	"co.uk": true, "org.uk": true, "ac.uk": true, "gov.uk": true, "net.uk": true,
	"com.br": true, "net.br": true, "org.br": true, "gov.br": true,
	"com.ar": true, "net.ar": true, "org.ar": true, "gob.ar": true,
	"com.mx": true, "net.mx": true, "org.mx": true, "gob.mx": true,
	"com.do": true, "net.do": true, "com.pe": true, "net.pe": true,
	"com.co": true, "net.co": true, "com.ec": true, "com.ve": true,
	"com.gt": true, "com.sv": true, "com.ni": true, "com.pa": true,
	"com.py": true, "com.uy": true, "com.bo": true, "com.cu": true,
	"com.au": true, "net.au": true, "org.au": true,
	"co.nz": true, "net.nz": true, "org.nz": true,
	"co.jp": true, "ne.jp": true, "or.jp": true, "ad.jp": true,
	"co.kr": true, "or.kr": true, "ne.kr": true,
	"com.cn": true, "net.cn": true, "org.cn": true,
	"com.hk": true, "net.hk": true, "com.tw": true, "net.tw": true,
	"com.sg": true, "net.sg": true, "com.my": true, "net.my": true,
	"co.id": true, "net.id": true, "or.id": true, "go.id": true, "ac.id": true,
	"com.ph": true, "net.ph": true, "com.vn": true, "net.vn": true,
	"co.th": true, "in.th": true, "co.in": true, "net.in": true, "org.in": true,
	"com.bd": true, "net.bd": true, "com.pk": true, "net.pk": true,
	"com.np": true, "com.lk": true, "com.kh": true,
	"co.za": true, "net.za": true, "org.za": true, "web.za": true,
	"com.ng": true, "com.gh": true, "co.ke": true, "or.ke": true,
	"co.tz": true, "co.ug": true, "com.eg": true, "com.ma": true,
	"com.tn": true, "com.dz": true, "com.ly": true, "com.sd": true,
	"com.tr": true, "net.tr": true, "com.sa": true, "net.sa": true,
	"com.ae": true, "com.qa": true, "com.kw": true, "com.bh": true,
	"com.om": true, "com.jo": true, "com.lb": true, "com.iq": true,
	"com.il": true, "co.il": true, "net.il": true,
	"com.ua": true, "net.ua": true, "in.ua": true,
	"com.ru": true, "net.ru": true, "com.by": true, "com.kz": true,
	"com.pl": true, "net.pl": true, "com.pt": true, "com.gr": true,
	"com.ro": true, "com.cy": true, "com.mt": true,
	"com.fj": true, "com.pg": true, "com.sb": true, "com.vu": true,
	"com.jm": true, "com.tt": true, "com.bb": true, "com.gy": true,
	"com.bz": true, "com.ht": true, "com.ag": true, "com.lc": true,
	"com.vc": true, "com.gd": true, "com.dm": true, "com.kn": true,
	"com.bs": true, "com.ky": true, "com.bm": true, "com.aw": true,
	"com.cw": true, "com.sr": true, "com.pr": true,
	"riau.go.id": true,
}

// RegistrableDomain returns the eTLD+1 of host: the public suffix plus
// one label ("www.orange.es" → "orange.es", "a.b.example.co.uk" →
// "example.co.uk"). IP addresses and single-label hosts are returned
// unchanged. Ports must already be stripped.
func RegistrableDomain(host string) string {
	h := strings.ToLower(strings.Trim(host, "."))
	if h == "" {
		return ""
	}
	labels := strings.Split(h, ".")
	// Collapse empty labels ("a..b" → ["a","b"]) so malformed hosts
	// still canonicalise to a fixed point.
	clean := labels[:0]
	for _, l := range labels {
		if l != "" {
			clean = append(clean, l)
		}
	}
	labels = clean
	if len(labels) == 0 {
		return ""
	}
	if len(labels) < 2 {
		return labels[0]
	}
	// Try the longest multi-label suffix first (max 3 labels).
	for take := 3; take >= 2; take-- {
		if len(labels) > take {
			suffix := strings.Join(labels[len(labels)-take:], ".")
			if multiLabelSuffixes[suffix] {
				return strings.Join(labels[len(labels)-take-1:], ".")
			}
		}
	}
	// Default: single-label TLD.
	return strings.Join(labels[len(labels)-2:], ".")
}

// BrandLabel returns the brand-carrying label of a host: the leftmost
// label of its registrable domain ("www.orange.es" → "orange",
// "www.claropr.com" → "claropr"). This is the paper's "subdomain" notion
// in §4.3.3 (e.g. www.orange.es and www.orange.pl share "orange").
func BrandLabel(host string) string {
	rd := RegistrableDomain(host)
	if rd == "" {
		return ""
	}
	if i := strings.IndexByte(rd, '.'); i > 0 {
		return rd[:i]
	}
	return rd
}

// BrandLabelOfURL is BrandLabel applied to a URL's host.
func BrandLabelOfURL(raw string) string { return BrandLabel(Host(raw)) }

// SharedPrefixLen returns the length of the common prefix of two strings;
// used to score domain-name similarity between brand labels (e.g.
// "clarochile" vs "claropr" share "claro").
func SharedPrefixLen(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
