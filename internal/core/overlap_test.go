package core_test

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/nu-aqualab/borges/internal/cache"
	"github.com/nu-aqualab/borges/internal/core"
	"github.com/nu-aqualab/borges/internal/peeringdb"
	"github.com/nu-aqualab/borges/internal/simllm"
	"github.com/nu-aqualab/borges/internal/websim"
	"github.com/nu-aqualab/borges/internal/whois"
)

// TestProgressOrderDeterministic runs the overlapped pipeline and
// requires the buffered progress lines to appear in the canonical
// stage order even though the NER and web stages raced.
func TestProgressOrderDeterministic(t *testing.T) {
	_, in := testInputs(t, 0.02)
	var lines []string
	opts := core.Options{Progress: func(f string, args ...any) {
		lines = append(lines, fmt.Sprintf(f, args...))
	}}
	if _, err := core.Run(context.Background(), in, opts); err != nil {
		t.Fatal(err)
	}
	var stages []string
	for _, l := range lines {
		stages = append(stages, strings.SplitN(l, ":", 2)[0])
	}
	want := []string{"universe", "org keys", "notes/aka", "crawl", "crawl", "R&R", "favicons", "consolidated"}
	if len(stages) != len(want) {
		t.Fatalf("progress stages = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("progress stage %d = %q, want %q (all: %v)", i, stages[i], want[i], stages)
		}
	}
}

// TestParallelStagesUnderRace runs several full-feature pipelines
// concurrently so the race detector sweeps the overlapped NER+web
// stages, the shared cache, and the singleflight paths together.
func TestParallelStagesUnderRace(t *testing.T) {
	_, in := testInputs(t, 0.01)
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := core.Run(context.Background(), in, core.Options{Cache: store})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Mapping.NumASNs() == 0 {
				t.Error("empty mapping")
			}
		}()
	}
	wg.Wait()
}

// TestWarmCacheRunMakesNoBackendCalls is the tentpole acceptance
// check at the core layer: a second full-feature run over one cache
// must issue zero LLM calls and zero transport round-trips, and its
// mapping must match the cold run's.
func TestWarmCacheRunMakesNoBackendCalls(t *testing.T) {
	ds, in := testInputs(t, 0.02)
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.Run(context.Background(), in, core.Options{Cache: store})
	if err != nil {
		t.Fatal(err)
	}

	ds.Web.ResetRequests()
	warmModel := simllm.NewModel()
	in.Provider = warmModel
	warm, err := core.Run(context.Background(), in, core.Options{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if calls := warmModel.IECalls() + warmModel.ClassifierCalls(); calls != 0 {
		t.Errorf("warm run made %d LLM calls, want 0", calls)
	}
	if reqs := ds.Web.Requests(); reqs != 0 {
		t.Errorf("warm run made %d transport round-trips, want 0", reqs)
	}
	if warm.Mapping.NumOrgs() != cold.Mapping.NumOrgs() || warm.Mapping.NumASNs() != cold.Mapping.NumASNs() {
		t.Errorf("warm mapping %d orgs/%d ASNs differs from cold %d/%d",
			warm.Mapping.NumOrgs(), warm.Mapping.NumASNs(),
			cold.Mapping.NumOrgs(), cold.Mapping.NumASNs())
	}
	if warm.Stats != cold.Stats {
		t.Errorf("warm stats %+v differ from cold %+v", warm.Stats, cold.Stats)
	}
}

// TestBadURLsCounted builds a corpus whose PDB nets include websites
// that cannot canonicalize; they must be counted in Stats.BadURLs and
// never become crawl tasks: the report counts one crawl item, and the
// transport sees requests for the good site only.
func TestBadURLsCounted(t *testing.T) {
	w := whois.NewSnapshot("20240701")
	w.AddOrg(whois.Org{ID: "ORG-1", Name: "One"})
	w.AddAS(whois.ASRecord{ASN: 1, OrgID: "ORG-1"})
	w.AddOrg(whois.Org{ID: "ORG-2", Name: "Two"})
	w.AddAS(whois.ASRecord{ASN: 2, OrgID: "ORG-2"})
	w.AddOrg(whois.Org{ID: "ORG-3", Name: "Three"})
	w.AddAS(whois.ASRecord{ASN: 3, OrgID: "ORG-3"})

	p := peeringdb.NewSnapshot("20240724")
	p.AddOrg(peeringdb.Org{ID: 1, Name: "One"})
	p.AddNet(peeringdb.Net{ID: 1, OrgID: 1, ASN: 1, Website: "https://ok.example"})
	p.AddOrg(peeringdb.Org{ID: 2, Name: "Two"})
	p.AddNet(peeringdb.Net{ID: 2, OrgID: 2, ASN: 2, Website: "http://bad url with spaces"})
	p.AddOrg(peeringdb.Org{ID: 3, Name: "Three"})
	p.AddNet(peeringdb.Net{ID: 3, OrgID: 3, ASN: 3, Website: "://also-bad"})

	web := websim.New()
	var (
		mu    sync.Mutex
		hosts []string
	)
	transport := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		mu.Lock()
		hosts = append(hosts, req.URL.Host)
		mu.Unlock()
		return web.RoundTrip(req)
	})
	f := core.Features{RR: true}
	res, err := core.Run(context.Background(), core.Inputs{
		WHOIS:     w,
		PDB:       p,
		Transport: transport,
	}, core.Options{Features: &f})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NetsWithWebsite != 3 {
		t.Errorf("NetsWithWebsite = %d, want 3", res.Stats.NetsWithWebsite)
	}
	if res.Stats.BadURLs != 2 {
		t.Errorf("BadURLs = %d, want 2", res.Stats.BadURLs)
	}
	if res.Stats.UniqueURLs != 1 {
		t.Errorf("UniqueURLs = %d, want 1", res.Stats.UniqueURLs)
	}
	crawled := -1
	for _, src := range res.Report.Sources {
		if src.Name == core.SourceCrawl {
			crawled = src.Items
		}
	}
	if crawled != 1 {
		t.Errorf("crawl items = %d, want 1 (bad URLs never become tasks)", crawled)
	}
	if len(hosts) == 0 {
		t.Error("the good site was never requested")
	}
	for _, h := range hosts {
		if h != "ok.example" {
			t.Errorf("request to %q: only ok.example is a task", h)
		}
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }
