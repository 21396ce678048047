package core_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/cache"
	"github.com/nu-aqualab/borges/internal/core"
	"github.com/nu-aqualab/borges/internal/llm"
	"github.com/nu-aqualab/borges/internal/simllm"
	"github.com/nu-aqualab/borges/internal/synth"
)

// flaky fails every nth request with a retryable error before
// delegating — a rate-limited live API seen from a batch job.
type flaky struct {
	inner    llm.Provider
	n        int64
	counter  atomic.Int64
	failures atomic.Int64
}

func (f *flaky) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if f.counter.Add(1)%f.n == 0 {
		f.failures.Add(1)
		return llm.Response{}, fmt.Errorf("synthetic 429: %w", llm.ErrRateLimited)
	}
	return f.inner.Complete(ctx, req)
}

// TestPipelineSurvivesFlakyProviderWithRetry runs the full pipeline
// through a provider that rate-limits every 5th call, with the run
// retrying completions: the run must complete with the same result as
// a clean run.
func TestPipelineSurvivesFlakyProviderWithRetry(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 21, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := core.Run(context.Background(), core.Inputs{
		WHOIS: ds.WHOIS, PDB: ds.PDB, Transport: ds.Web, Provider: simllm.NewModel(),
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	f := &flaky{inner: simllm.NewModel(), n: 5}
	flakyRes, err := core.Run(context.Background(), core.Inputs{
		WHOIS: ds.WHOIS, PDB: ds.PDB, Transport: ds.Web, Provider: f,
	}, core.Options{MaxRetries: 3, RetryBaseDelay: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if f.failures.Load() == 0 {
		t.Fatal("the flaky provider never failed; test is vacuous")
	}
	if flakyRes.Mapping.NumOrgs() != clean.Mapping.NumOrgs() ||
		flakyRes.Mapping.NumASNs() != clean.Mapping.NumASNs() {
		t.Errorf("flaky run diverged: %d/%d vs %d/%d orgs/ASNs",
			flakyRes.Mapping.NumOrgs(), flakyRes.Mapping.NumASNs(),
			clean.Mapping.NumOrgs(), clean.Mapping.NumASNs())
	}
}

// TestPipelineDegradesWithoutRetry shows the contrast: the same flaky
// provider without retries loses extractions (per-record errors), but
// the run still completes — per-record failures never abort a batch.
func TestPipelineDegradesWithoutRetry(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 21, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	f := &flaky{inner: simllm.NewModel(), n: 3}
	res, err := core.Run(context.Background(), core.Inputs{
		WHOIS: ds.WHOIS, PDB: ds.PDB, Transport: ds.Web, Provider: f,
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var recordErrs int
	for _, x := range res.Artifacts.Extractions {
		if x.Err != nil {
			recordErrs++
		}
	}
	if recordErrs == 0 {
		t.Error("expected per-record errors to surface in the artifacts")
	}
}

// TestIncrementalRerunWithCache demonstrates the temperature-0 caching
// story: a second pipeline run over the same snapshot through a caching
// provider touches the backend zero times.
func TestIncrementalRerunWithCache(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 22, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	backend := simllm.NewModel()
	c, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := core.Inputs{WHOIS: ds.WHOIS, PDB: ds.PDB, Transport: ds.Web, Provider: &cache.Provider{Inner: backend, Cache: c}}

	if _, err := core.Run(context.Background(), in, core.Options{}); err != nil {
		t.Fatal(err)
	}
	firstCalls := backend.IECalls() + backend.ClassifierCalls()
	if firstCalls == 0 {
		t.Fatal("first run made no backend calls")
	}

	res2, err := core.Run(context.Background(), in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	secondCalls := backend.IECalls() + backend.ClassifierCalls() - firstCalls
	if secondCalls != 0 {
		t.Errorf("second run hit the backend %d times, want 0 (all cached)", secondCalls)
	}
	if c.Stats().Hits == 0 {
		t.Error("cache reported no hits")
	}

	// An updated snapshot re-prompts only the changed record.
	net := ds.PDB.NetsWithText()[0]
	changed := *net
	changed.Notes = changed.Notes + " Also operating AS64499 under the same organization."
	ds.PDB.AddNet(changed)
	if _, err := core.Run(context.Background(), in, core.Options{}); err != nil {
		t.Fatal(err)
	}
	thirdCalls := backend.IECalls() + backend.ClassifierCalls() - firstCalls
	if thirdCalls != 1 {
		t.Errorf("incremental run hit the backend %d times, want exactly 1", thirdCalls)
	}
	_ = res2
}
