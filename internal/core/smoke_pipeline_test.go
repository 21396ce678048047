package core_test

import (
	"context"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/baseline"
	"github.com/nu-aqualab/borges/internal/core"
	"github.com/nu-aqualab/borges/internal/orgfactor"
	"github.com/nu-aqualab/borges/internal/simllm"
	"github.com/nu-aqualab/borges/internal/synth"
)

// TestSmokeFullPipeline runs Borges end-to-end on the full-scale
// synthetic corpus and logs the headline numbers against the paper's.
func TestSmokeFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ds, err := synth.Generate(synth.Config{Seed: 1, Scale: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	res, err := core.Run(context.Background(), core.Inputs{
		WHOIS:     ds.WHOIS,
		PDB:       ds.PDB,
		Transport: ds.Web,
		Provider:  simllm.NewModel(),
	}, core.Options{LLMConcurrency: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("pipeline:", time.Since(t0))
	t.Logf("stats: %+v", res.Stats)

	borges, err := orgfactor.Theta(res.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	as2org := baseline.AS2Org(ds.WHOIS)
	t2, _ := orgfactor.Theta(as2org)
	plus := baseline.AS2OrgPlus(ds.WHOIS, ds.PDB, baseline.Config{})
	t3, _ := orgfactor.Theta(plus)
	t.Logf("theta AS2Org=%.4f (paper 0.3343)  as2org+=%.4f (0.3467)  Borges=%.4f (0.3576)", t2, t3, borges)
	t.Logf("orgs: AS2Org=%d as2org+=%d Borges=%d", as2org.NumOrgs(), plus.NumOrgs(), res.Mapping.NumOrgs())

	// Per-feature Table 3 view.
	for name, sets := range map[string]int{
		"OID_P":    len(ds.PDB.SiblingSets()),
		"N&A":      len(res.Artifacts.NASets),
		"R&R":      len(res.Artifacts.RRSets),
		"Favicons": len(res.Artifacts.FaviconSets),
	} {
		t.Logf("feature %s: %d sets", name, sets)
	}
	naMap := core.FeatureMapping(res.Artifacts.NASets)
	t.Logf("N&A feature: %d ASNs / %d orgs (paper 1,436/847)", naMap.NumASNs(), naMap.NumOrgs())
	rrMap := core.FeatureMapping(res.Artifacts.RRSets)
	t.Logf("R&R feature: %d ASNs / %d orgs (paper 22,523/20,065)", rrMap.NumASNs(), rrMap.NumOrgs())
	fMap := core.FeatureMapping(res.Artifacts.FaviconSets)
	t.Logf("F feature: %d ASNs / %d orgs (paper 1,297/319)", fMap.NumASNs(), fMap.NumOrgs())
	t.Logf("favicon stats: %+v (paper: 14,516 unique, 440 shared, 1,260 URLs, 281 same-brand)", res.Stats.FaviconStats)
}
