package urlmatch

import (
	"net/url"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzCanonicalize: accepted URLs must be valid UTF-8 and stable fixed
// points, the URL canonicalURL hands back (which the crawler carries to
// the next hop) must be the canonical form parsed, and the function must
// never panic.
func FuzzCanonicalize(f *testing.F) {
	f.Add("https://www.example.com/")
	f.Add("HTTP://X.COM:80//a//b/#f")
	f.Add("www.claro.com.do/personas/")
	f.Add("ftp://nope")
	f.Add("http://[::1]:8080/x?q=1")
	f.Add("://")
	f.Add("https://user:pass@h/p")
	f.Add("https://x.test/?q=\xff")
	f.Add("https://x.test/?q=\xfe%ff\u00e9")
	f.Add("https://h/?q= #f")
	f.Add("https://h/?q=\u0085#f")
	f.Add("HTTPS://User:pw@[::1]:443/%7e/./x//")
	f.Fuzz(func(t *testing.T, raw string) {
		u, once, err := canonicalURL(raw)
		if err != nil {
			return
		}
		if parsed, err := url.Parse(once); err != nil || !reflect.DeepEqual(u, parsed) {
			t.Fatalf("canonicalURL(%q) URL = %#v, want %q parsed: %#v, %v", raw, u, once, parsed, err)
		}
		if !utf8.ValidString(once) {
			t.Fatalf("canonical form is not valid UTF-8: %q → %q", raw, once)
		}
		twice, err := Canonicalize(once)
		if err != nil {
			t.Fatalf("canonical form rejected: %q → %q: %v", raw, once, err)
		}
		if once != twice {
			t.Fatalf("not idempotent: %q → %q → %q", raw, once, twice)
		}
	})
}

// FuzzResolve: resolving a reference against a canonical URL returns
// exactly what printing the resolved URL and canonicalizing that
// string returns, and the URL it hands back is the one parsing the
// canonical form yields.
func FuzzResolve(f *testing.F) {
	f.Add("https://www.example.com/a/b", "../c?x=1#f")
	f.Add("http://h:8080/", "//Other.TEST:80/p/")
	f.Add("https://h/", "http:?q")
	f.Add("https://h/", "http:foo")
	f.Add("https://h/?q=1", "")
	f.Add("https://h/", "x?q= #")
	f.Add("https://h/", "x?q=\xff#f")
	f.Add("https://h/", "HTTPS://User:pw@[::1]:443/%7e/./x//")
	f.Add("https://h/", "ftp://h/")
	f.Add("https://h/", "https://bad host/")
	f.Fuzz(func(t *testing.T, rawBase, rawRef string) {
		base, _, err := canonicalURL(rawBase)
		if err != nil {
			return
		}
		ref, err := url.Parse(strings.TrimSpace(rawRef))
		if err != nil {
			return
		}
		wantURL, want, wantErr := canonicalURL(base.ResolveReference(ref).String())
		gotURL, got, gotErr := Resolve(base, ref)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("Resolve(%q, %q) error = %v, want %v", rawBase, rawRef, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("Resolve(%q, %q) = %q, want %q", rawBase, rawRef, got, want)
		}
		if gotErr != nil {
			return
		}
		parsed, err := url.Parse(got)
		if err != nil {
			t.Fatalf("canonical form %q does not parse: %v", got, err)
		}
		if !reflect.DeepEqual(gotURL, parsed) || !reflect.DeepEqual(wantURL, parsed) {
			t.Fatalf("Resolve(%q, %q) URL = %#v, canonicalURL's %#v, want the canonical form parsed %#v", rawBase, rawRef, gotURL, wantURL, parsed)
		}
	})
}

// FuzzRegistrableDomain: the result is always a suffix and a fixed point.
func FuzzRegistrableDomain(f *testing.F) {
	f.Add("www.orange.es")
	f.Add("a.b.c.co.uk")
	f.Add("..")
	f.Add("localhost")
	f.Add("x.riau.go.id")
	f.Fuzz(func(t *testing.T, host string) {
		rd := RegistrableDomain(host)
		if rd == "" {
			return
		}
		if RegistrableDomain(rd) != rd {
			t.Fatalf("not a fixed point: %q → %q → %q", host, rd, RegistrableDomain(rd))
		}
		if BrandLabel(host) == "" {
			t.Fatalf("non-empty registrable domain %q but empty brand label for %q", rd, host)
		}
	})
}
