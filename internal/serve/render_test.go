package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/nu-aqualab/borges/internal/admission"
	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/snapbin"
)

// orgJSON is the oracle's wire form of one organization: what
// encoding/json writes is what /v1/org, /v1/as and /v1/search serve.
type orgJSON struct {
	Org      int      `json:"org"`
	Name     string   `json:"name,omitempty"`
	Size     int      `json:"size"`
	ASNs     []uint32 `json:"asns"`
	Features []string `json:"features,omitempty"`
}

func orgToJSON(c *cluster.Cluster) orgJSON {
	out := orgJSON{
		Org:      c.ID,
		Name:     c.Name,
		Size:     c.Size(),
		ASNs:     make([]uint32, len(c.ASNs)),
		Features: FeatureNames(c),
	}
	for i, a := range c.ASNs {
		out.ASNs[i] = uint32(a)
	}
	return out
}

// FeatureNames renders a cluster's contributing features in the
// paper's shorthand (OID_W, OID_P, N&A, R&R, F).
func FeatureNames(c *cluster.Cluster) []string {
	var out []string
	for f := 0; f < cluster.NumFeatures; f++ {
		if c.Features[f] {
			out = append(out, cluster.Feature(f).String())
		}
	}
	return out
}

// oracleEncode encodes v as the handlers once did.
func oracleEncode(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func oracleOrg(c *cluster.Cluster) []byte { return oracleEncode(orgToJSON(c)) }

func oracleAS(a asnum.ASN, c *cluster.Cluster) []byte {
	org := orgToJSON(c)
	return oracleEncode(struct {
		ASN      uint32   `json:"asn"`
		Org      orgJSON  `json:"org"`
		Siblings []uint32 `json:"siblings"`
	}{uint32(a), org, org.ASNs})
}

func oracleSearch(q string, brownout bool, hits []cluster.Cluster) []byte {
	out := struct {
		Query    string    `json:"query"`
		Brownout bool      `json:"brownout,omitempty"`
		Matches  []orgJSON `json:"matches"`
	}{Query: q, Brownout: brownout, Matches: make([]orgJSON, len(hits))}
	for i := range hits {
		out.Matches[i] = orgToJSON(&hits[i])
	}
	return oracleEncode(out)
}

// nameParts are the fragments randomMapping builds names from: every
// class of byte the JSON string escaping treats differently.
var nameParts = []string{
	"Net", " ", "Org", "AT&T", "<b>", `"q"`, `\`, "/", "\x00", "\x08", "\x0c",
	"\t", "\n", "\r", "\x1f", "\x7f", "\xe2\x80\xa8", "\xe2\x80\xa9",
	"\xff", "\xc3", "\xe2\x80", "é", "東京", "\U0001F600", "[1]", `"asns":[2]`,
}

// randomMapping builds a seeded mapping of n networks whose names mix
// nameParts (or are empty) and whose organizations carry every feature
// combination, none included.
func randomMapping(seed int64, n int) *cluster.Mapping {
	rng := rand.New(rand.NewSource(seed))
	b := cluster.NewBuilder()
	for a := 1; a <= n; a++ {
		b.AddUniverse(asnum.ASN(a * 7919 % 4294967295))
	}
	for i := 0; i < n/2; i++ {
		set := cluster.SiblingSet{Source: cluster.Feature(rng.Intn(cluster.NumFeatures))}
		for j := rng.Intn(5) + 1; j > 0; j-- {
			set.ASNs = append(set.ASNs, asnum.ASN((rng.Intn(n)+1)*7919%4294967295))
		}
		b.Add(set)
	}
	names := map[asnum.ASN]string{}
	return b.Build(func(members []asnum.ASN) string {
		name, ok := names[members[0]]
		if !ok {
			var sb bytes.Buffer
			for j := rng.Intn(5); j > 0; j-- {
				sb.WriteString(nameParts[rng.Intn(len(nameParts))])
			}
			name = sb.String()
			names[members[0]] = name
		}
		return name
	})
}

// searchQueries exercise the search envelope's query escaping.
var searchQueries = []string{
	"org", "net", "at&t", `"q"`, "<b>", `\`, "é", "東京", "\xff", "\t", "\xe2\x80\xa8", "[1]", "zzz-no-match",
}

// TestRenderMatchesOracle: every /v1/org and /v1/as response of the
// golden mapping and of a seeded random one, and the /v1/search
// response bytes with and without brownout, equal what encoding/json
// writes for the same objects.
func TestRenderMatchesOracle(t *testing.T) {
	for name, m := range map[string]*cluster.Mapping{
		"golden": goldenMapping(),
		"random": randomMapping(7, 3000),
	} {
		t.Run(name, func(t *testing.T) {
			s := mustSnapshot(t, m)
			var buf []byte
			for i := range m.Clusters {
				c := &m.Clusters[i]
				var ok bool
				if buf, ok = s.AppendOrgBody(buf[:0], c.ID); !ok || !bytes.Equal(buf, oracleOrg(c)) {
					t.Fatalf("/v1/org/%d:\n got %q\nwant %q", c.ID, buf, oracleOrg(c))
				}
				for _, a := range c.ASNs {
					if buf, ok = s.AppendASBody(buf[:0], a); !ok || !bytes.Equal(buf, oracleAS(a, c)) {
						t.Fatalf("/v1/as/%d:\n got %q\nwant %q", a, buf, oracleAS(a, c))
					}
				}
			}
			srv, err := NewServer(s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range searchQueries {
				rec := do(t, srv, "GET", "/v1/search?name="+url.QueryEscape(q), nil)
				if want := oracleSearch(q, false, s.Search(q, 50)); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("/v1/search?name=%q: status %d\n got %q\nwant %q", q, rec.Code, rec.Body.Bytes(), want)
				}
			}
			checkBrownoutSearch(t, s)
		})
	}
}

// checkBrownoutSearch holds three of four admission slots, so searches
// brown out, and compares their responses with the oracle's.
func checkBrownoutSearch(t *testing.T, s *Snapshot) {
	t.Helper()
	const limit = 3
	var holding atomic.Bool
	gate := make(chan struct{})
	srv, err := NewServer(s, Options{
		Admission: &admission.Config{MaxInflight: 4, QueueDepth: 2, ShedSearchFirst: true, BrownoutLimit: limit},
		testHold: func(endpoint string) {
			if holding.Load() && endpoint == "org" {
				<-gate
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	holding.Store(true)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/org/0", nil))
		}()
	}
	defer func() {
		close(gate)
		holding.Store(false)
		wg.Wait()
	}()
	waitAdmission(t, srv, func(st admission.Stats) bool { return st.Inflight == 3 })
	browned := 0
	for _, q := range searchQueries {
		rec := do(t, srv, "GET", "/v1/search?name="+url.QueryEscape(q), nil)
		hits := s.SearchBrownout(q, limit)
		if want := oracleSearch(q, true, hits); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("browned /v1/search?name=%q: status %d\n got %q\nwant %q", q, rec.Code, rec.Body.Bytes(), want)
		}
		browned += len(hits)
	}
	if browned == 0 {
		t.Fatal("no browned search matched anything")
	}
}

// FuzzRenderOrg compares the renderer with the oracle on one
// organization: its name, ID, features and members come from the
// fuzzer, and the /v1/org, /v1/as and /v1/search renders must equal
// what encoding/json writes.
func FuzzRenderOrg(f *testing.F) {
	for _, name := range []string{
		"", "Lumen", "AT&T <Services>", `Quote "Co" \ Backslash`, "\x00\x01\x1f\x7f",
		"\b\f\n\r\t", "\xff\xfe", "\xc3(", "a\xe2\x80\xa8b\xe2\x80\xa9c", "Télécom 東京", "\U0001F600",
	} {
		f.Add(name, uint32(0), uint8(0), uint32(1), uint8(1))
		f.Add(name, uint32(42), uint8(31), uint32(4200000000), uint8(5))
	}
	f.Fuzz(func(t *testing.T, name string, id uint32, features uint8, first uint32, count uint8) {
		c := cluster.Cluster{ID: int(id), Name: name}
		for f := 0; f < cluster.NumFeatures; f++ {
			c.Features[f] = features&(1<<f) != 0
		}
		for i := 0; i <= int(count%8); i++ {
			c.ASNs = append(c.ASNs, asnum.ASN(first+uint32(i)))
		}
		if got, want := snapbin.AppendOrg(nil, &c), oracleOrg(&c); !bytes.Equal(got, want) {
			t.Fatalf("AppendOrg:\n got %q\nwant %q", got, want)
		}
		a := c.ASNs[len(c.ASNs)-1]
		if got, want := snapbin.AppendAS(nil, a, &c), oracleAS(a, &c); !bytes.Equal(got, want) {
			t.Fatalf("AppendAS:\n got %q\nwant %q", got, want)
		}
		hits := []cluster.Cluster{c, c}
		if got, want := snapbin.AppendSearch(nil, name, features&1 != 0, hits), oracleSearch(name, features&1 != 0, hits); !bytes.Equal(got, want) {
			t.Fatalf("AppendSearch:\n got %q\nwant %q", got, want)
		}
	})
}
