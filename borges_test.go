package borges_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	borges "github.com/nu-aqualab/borges"
)

func smallDataset(t *testing.T) *borges.Dataset {
	t.Helper()
	ds, err := borges.GenerateDataset(borges.DatasetConfig{Seed: 7, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPublicPipeline(t *testing.T) {
	ds := smallDataset(t)
	res, err := borges.Run(context.Background(), borges.Inputs{
		WHOIS:     ds.WHOIS,
		PDB:       ds.PDB,
		Transport: ds.Web,
		Provider:  borges.NewSimulatedLLM(),
	}, borges.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping.NumASNs() != ds.WHOIS.NumASNs() {
		t.Errorf("mapping covers %d ASNs, universe has %d",
			res.Mapping.NumASNs(), ds.WHOIS.NumASNs())
	}
	// Borges must outperform both baselines on θ.
	borgesTheta, err := borges.Theta(res.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	baseTheta, err := borges.Theta(borges.AS2Org(ds.WHOIS))
	if err != nil {
		t.Fatal(err)
	}
	plusTheta, err := borges.Theta(borges.AS2OrgPlus(ds.WHOIS, ds.PDB))
	if err != nil {
		t.Fatal(err)
	}
	if !(borgesTheta > plusTheta && plusTheta > baseTheta) {
		t.Errorf("theta ordering broken: borges=%v plus=%v base=%v",
			borgesTheta, plusTheta, baseTheta)
	}
	// The flagship merger: Edgecast and Limelight unify via edg.io.
	ec, _ := borges.ParseASN("AS15133")
	ll, _ := borges.ParseASN("AS22822")
	if res.Mapping.ClusterOf(ec) != res.Mapping.ClusterOf(ll) {
		t.Error("Edgecast and Limelight should share an organization under Borges")
	}
	if borges.AS2Org(ds.WHOIS).ClusterOf(ec) == borges.AS2Org(ds.WHOIS).ClusterOf(ll) {
		t.Error("AS2Org should keep Edgecast and Limelight apart")
	}
}

func TestPublicSnapshotRoundTrips(t *testing.T) {
	ds := smallDataset(t)
	var buf bytes.Buffer
	if err := borges.WriteWHOIS(&buf, ds.WHOIS); err != nil {
		t.Fatal(err)
	}
	w2, err := borges.ParseWHOIS(bytes.NewReader(buf.Bytes()), ds.WHOIS.Date)
	if err != nil {
		t.Fatal(err)
	}
	if w2.NumASNs() != ds.WHOIS.NumASNs() {
		t.Error("WHOIS round trip lost records")
	}

	buf.Reset()
	if err := borges.WritePeeringDB(&buf, ds.PDB); err != nil {
		t.Fatal(err)
	}
	p2, err := borges.ParsePeeringDB(bytes.NewReader(buf.Bytes()), ds.PDB.Date)
	if err != nil {
		t.Fatal(err)
	}
	if p2.NumNets() != ds.PDB.NumNets() {
		t.Error("PeeringDB round trip lost records")
	}

	buf.Reset()
	if err := borges.WriteAPNIC(&buf, ds.APNIC); err != nil {
		t.Fatal(err)
	}
	a2, err := borges.ParseAPNIC(bytes.NewReader(buf.Bytes()), ds.APNIC.Date)
	if err != nil {
		t.Fatal(err)
	}
	if a2.TotalUsers() != ds.APNIC.TotalUsers() {
		t.Error("APNIC round trip changed totals")
	}

	buf.Reset()
	if err := borges.WriteASRank(&buf, ds.ASRank); err != nil {
		t.Fatal(err)
	}
	r2, err := borges.ParseASRank(bytes.NewReader(buf.Bytes()), ds.ASRank.Date)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != ds.ASRank.Len() {
		t.Error("AS-Rank round trip lost entries")
	}
}

func TestPublicEvaluation(t *testing.T) {
	ds := smallDataset(t)
	ev, err := borges.PrepareEvaluation(context.Background(), ds, borges.NewSimulatedLLM())
	if err != nil {
		t.Fatal(err)
	}
	tables, err := ev.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 10 {
		t.Fatalf("expected 10 experiments, got %d", len(tables))
	}
	seen := map[string]bool{}
	for _, tab := range tables {
		if tab.ID == "" || len(tab.Rows) == 0 {
			t.Errorf("experiment %q rendered empty", tab.ID)
		}
		seen[tab.ID] = true
		if out := tab.Render(); !strings.Contains(out, tab.ID) {
			t.Errorf("Render missing ID header for %s", tab.ID)
		}
		if csv := tab.CSV(); !strings.Contains(csv, ",") {
			t.Errorf("CSV output malformed for %s", tab.ID)
		}
	}
	for _, id := range []string{"table3", "table4", "table5", "table6", "table7",
		"table8", "table9", "figure7", "figure8", "figure9"} {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, err := ev.ByID("table6"); err != nil {
		t.Errorf("ByID(table6): %v", err)
	}
	if _, err := ev.ByID("nope"); err == nil {
		t.Error("ByID should reject unknown ids")
	}
}

// TestOpenAIProviderRetriedOnlyByRun drives the CLI's provider wiring —
// NewOpenAIProvider under Run with two retries and no breakers —
// against an endpoint that answers every request with 429: each
// completion is sent exactly MaxRetries+1 times, because Run's
// executor is the only retry layer.
func TestOpenAIProviderRetriedOnlyByRun(t *testing.T) {
	var mu sync.Mutex
	sent := map[string]int{} // request body → times sent
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		sent[string(body)]++
		mu.Unlock()
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	ds, err := borges.GenerateDataset(borges.DatasetConfig{Seed: 7, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	_, err = borges.Run(context.Background(), borges.Inputs{
		WHOIS:     ds.WHOIS,
		PDB:       ds.PDB,
		Transport: ds.Web,
		Provider:  borges.NewOpenAIProvider(srv.URL, "sk-test", srv.Client()),
	}, borges.Options{MaxRetries: 2, RetryBaseDelay: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) == 0 {
		t.Fatal("the run sent no completions")
	}
	for body, n := range sent {
		if n != 3 {
			t.Fatalf("a completion was sent %d times, want 3: %.120s", n, body)
		}
	}
}

func TestNewOpenAIProviderAgainstMock(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"model":"gpt-4o-mini","choices":[{"message":{"role":"assistant","content":"pong"}}]}`)
	}))
	defer srv.Close()
	p := borges.NewOpenAIProvider(srv.URL, "sk-test", srv.Client())
	resp, err := p.Complete(context.Background(), borges.LLMRequest{
		Model: "gpt-4o-mini",
		Messages: []borges.LLMMessage{
			{Role: borges.RoleUser, Content: "ping"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Content != "pong" {
		t.Errorf("content = %q", resp.Content)
	}
}
