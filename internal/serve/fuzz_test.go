package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/snapbin"
	"github.com/nu-aqualab/borges/internal/vfs"
)

// FuzzLoadMapping fuzzes the snapshot load path a -mapping file (and
// every /admin/reload of one) flows through: cluster.ReadJSONL
// followed by snapshot construction. The contract under arbitrary
// bytes: the loader parses or fails cleanly (no panic), and anything
// it accepts must index into a self-consistent, servable snapshot —
// the same validate-then-swap guarantee hot reload relies on. The
// seed corpus includes a torn-tail file (a crash mid-append), the
// failure mode the cache layer's disk tier also has to survive.
// FuzzLoadSnapshot fuzzes the binary artifact decoders behind
// -snapshot-in and binary /admin/reload: the streaming decoder, driven
// through LoadSnapshot (on a reader that reports its length and on one
// that hides it) and through LoadSnapshotFileFS on a temp file. The
// contract under arbitrary bytes: every loader returns a typed error or
// a fully self-consistent snapshot — never a panic, and never an
// allocation sized by an unvalidated length field
// (the size cap below would not save us from a forged multi-gigabyte
// count; the decoders' bounds checks must) — and all of them agree on
// whether to accept. An accepted snapshot re-encodes to the artifact's
// content hash and renders valid JSON for every organization. The seed
// corpus is a valid artifact plus the mutations the format is designed
// to reject: truncations, flipped header/hash/payload bytes, and bare
// magic.
func FuzzLoadSnapshot(f *testing.F) {
	var buf bytes.Buffer
	snap, err := NewSnapshot(variantMapping(3, 24), "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := WriteSnapshot(&buf, snap); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:63])
	f.Add([]byte("BORGSNAP"))
	f.Add([]byte(""))
	for _, off := range []int{0, 8, 12, 16, 24, 64, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xFF
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound the cost of one fuzz iteration
		}
		path := filepath.Join(t.TempDir(), "fuzz.snapbin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded := map[string]*Snapshot{}
		errs := map[string]error{}
		loaded["reader"], errs["reader"] = LoadSnapshot(bytes.NewReader(data))
		loaded["opaque-reader"], errs["opaque-reader"] = LoadSnapshot(opaqueReader{bytes.NewReader(data)})
		loaded["file"], errs["file"] = LoadSnapshotFileFS(vfs.OS, path)
		for name, err := range errs {
			if (err == nil) != (errs["reader"] == nil) {
				t.Fatalf("loaders disagree on %s: %v", name, errs)
			}
			if err == nil {
				checkAcceptedSnapshot(t, name, loaded[name])
			}
		}
	})
}

// checkAcceptedSnapshot asserts an accepted artifact decoded into a
// self-consistent, servable snapshot.
func checkAcceptedSnapshot(t *testing.T, loader string, snap *Snapshot) {
	t.Helper()
	st := snap.Stats()
	if st.Orgs == 0 || st.ASNs == 0 {
		t.Fatalf("%s accepted an empty mapping", loader)
	}
	m := snap.Mapping()
	if st.Orgs != m.NumOrgs() || st.ASNs != m.NumASNs() {
		t.Fatalf("%s: stats (%d orgs, %d asns) disagree with mapping (%d, %d)",
			loader, st.Orgs, st.ASNs, m.NumOrgs(), m.NumASNs())
	}
	var body []byte
	for i := range m.Clusters {
		c := &m.Clusters[i]
		for _, a := range c.ASNs {
			hit := snap.Lookup(a)
			if hit == nil || hit != c {
				t.Fatalf("%s: ASN %v misresolved in an accepted snapshot", loader, a)
			}
		}
		var ok bool
		if body, ok = snap.AppendOrgBody(body[:0], c.ID); !ok || !json.Valid(body) {
			t.Fatalf("%s: cluster %d renders an invalid /v1/org body: %s", loader, c.ID, body)
		}
		if body, ok = snap.AppendASBody(body[:0], c.ASNs[0]); !ok || !json.Valid(body) {
			t.Fatalf("%s: %v renders an invalid /v1/as body: %s", loader, c.ASNs[0], body)
		}
	}
	if snap.LoadMode() != LoadModeBinary || snap.ContentHash() == "" {
		t.Fatalf("%s: accepted snapshot reports mode %q hash %q", loader, snap.LoadMode(), snap.ContentHash())
	}
	if h := snapbin.HashImage(snap.image()); h != snap.ContentHash() {
		t.Fatalf("%s: re-encoding hashes %s, the artifact %s", loader, h, snap.ContentHash())
	}
}

func FuzzLoadMapping(f *testing.F) {
	var buf bytes.Buffer
	if err := cluster.WriteJSONL(&buf, variantMapping(3, 12)); err != nil {
		f.Fatal(err)
	}
	full := buf.String()
	f.Add([]byte(full))
	// Torn tail: complete first line, second line cut mid-record.
	if lines := strings.SplitAfter(full, "\n"); len(lines) >= 2 && len(lines[1]) > 2 {
		f.Add([]byte(lines[0] + lines[1][:len(lines[1])/2]))
	}
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"org":0,"asns":[]}`))
	f.Add([]byte(`{"org":0,"name":"x","asns":[1,2],"features":["BOGUS"]}`))
	f.Add([]byte(`{"org":0,"asns":[4294967295,0]}`))
	f.Add([]byte("not json at all"))
	f.Add([]byte(`{"org":0,"asns":[1,1,1]}` + "\n" + `{"org":1,"asns":[1,2]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound the cost of one fuzz iteration
		}
		m, err := cluster.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly — the acceptable outcome
		}
		snap, err := NewSnapshot(m, "fuzz")
		if err != nil {
			// Parsed but unservable (e.g. empty) — also a clean
			// refusal: reload keeps the old snapshot in that case.
			return
		}
		st := snap.Stats()
		if st.Orgs != m.NumOrgs() || st.ASNs != m.NumASNs() {
			t.Fatalf("snapshot stats (%d orgs, %d asns) disagree with mapping (%d, %d)",
				st.Orgs, st.ASNs, m.NumOrgs(), m.NumASNs())
		}
		if st.Orgs == 0 || st.ASNs == 0 {
			t.Fatal("NewSnapshot accepted an empty mapping")
		}
		for i := range m.Clusters {
			c := &m.Clusters[i]
			for _, a := range c.ASNs {
				hit := snap.Lookup(a)
				if hit == nil {
					t.Fatalf("ASN %v unmapped in its own snapshot", a)
				}
				if hit != c {
					t.Fatalf("ASN %v resolves to cluster %d, not its owner %d", a, hit.ID, c.ID)
				}
			}
		}
	})
}
