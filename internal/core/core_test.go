package core_test

import (
	"context"
	"errors"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/baseline"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/core"
	"github.com/nu-aqualab/borges/internal/orgfactor"
	"github.com/nu-aqualab/borges/internal/simllm"
	"github.com/nu-aqualab/borges/internal/synth"
)

func testInputs(t *testing.T, scale float64) (*synth.Dataset, core.Inputs) {
	t.Helper()
	ds, err := synth.Generate(synth.Config{Seed: 11, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	return ds, core.Inputs{
		WHOIS:     ds.WHOIS,
		PDB:       ds.PDB,
		Transport: ds.Web,
		Provider:  simllm.NewModel(),
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := core.Run(ctx, core.Inputs{}, core.Options{}); err == nil {
		t.Error("missing WHOIS should fail")
	}
	ds, in := testInputs(t, 0.01)
	_ = ds
	in.PDB = nil
	if _, err := core.Run(ctx, in, core.Options{}); err == nil {
		t.Error("missing PDB with PDB features should fail")
	}
	_, in = testInputs(t, 0.01)
	in.Provider = nil
	if _, err := core.Run(ctx, in, core.Options{}); err == nil {
		t.Error("missing provider with LLM features should fail")
	}
	// Keys-only configurations run without a provider.
	f := core.Features{OIDP: true}
	if _, err := core.Run(ctx, in, core.Options{Features: &f}); err != nil {
		t.Errorf("OID_P-only run should not need a provider: %v", err)
	}
	// A pure-WHOIS configuration runs without PDB too.
	f0 := core.Features{}
	_, in = testInputs(t, 0.01)
	in.PDB, in.Provider = nil, nil
	if _, err := core.Run(ctx, in, core.Options{Features: &f0}); err != nil {
		t.Errorf("WHOIS-only run failed: %v", err)
	}
}

func TestRunCoversUniverse(t *testing.T) {
	ds, in := testInputs(t, 0.02)
	res, err := core.Run(context.Background(), in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping.NumASNs() < ds.WHOIS.NumASNs() {
		t.Errorf("mapping misses universe networks: %d < %d",
			res.Mapping.NumASNs(), ds.WHOIS.NumASNs())
	}
	// Every WHOIS ASN resolves to a cluster.
	for _, a := range ds.WHOIS.ASNs()[:200] {
		if res.Mapping.ClusterOf(a) == nil {
			t.Fatalf("universe ASN %v unmapped", a)
		}
	}
}

func TestMappingNeverSplitsWHOISOrgs(t *testing.T) {
	ds, in := testInputs(t, 0.02)
	res, err := core.Run(context.Background(), in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Borges only merges: two ASNs sharing an OID_W always share a
	// Borges cluster.
	for _, id := range ds.WHOIS.OrgIDs()[:300] {
		members := ds.WHOIS.Members(id)
		if len(members) < 2 {
			continue
		}
		first := res.Mapping.ClusterOf(members[0])
		for _, a := range members[1:] {
			if res.Mapping.ClusterOf(a) != first {
				t.Fatalf("WHOIS org %s split across clusters", id)
			}
		}
	}
}

func TestFeatureMonotonicity(t *testing.T) {
	// Adding features can only merge further: θ is monotone in the
	// feature set, and cluster count is antitone.
	ds, in := testInputs(t, 0.02)
	ctx := context.Background()
	prevOrgs := -1
	var prevTheta float64
	configs := []core.Features{
		{},
		{OIDP: true},
		{OIDP: true, NotesAka: true},
		{OIDP: true, NotesAka: true, RR: true},
		{OIDP: true, NotesAka: true, RR: true, Favicons: true},
	}
	for _, f := range configs {
		f := f
		res, err := core.Run(ctx, in, core.Options{Features: &f})
		if err != nil {
			t.Fatal(err)
		}
		theta, err := orgfactor.Theta(res.Mapping)
		if err != nil {
			t.Fatal(err)
		}
		if prevOrgs >= 0 {
			if res.Mapping.NumOrgs() > prevOrgs {
				t.Errorf("feature set %s increased org count: %d > %d",
					f.Label(), res.Mapping.NumOrgs(), prevOrgs)
			}
			if theta+1e-12 < prevTheta {
				t.Errorf("feature set %s decreased θ: %v < %v", f.Label(), theta, prevTheta)
			}
		}
		prevOrgs, prevTheta = res.Mapping.NumOrgs(), theta
	}
	_ = ds
}

func TestRunBeatsBaselines(t *testing.T) {
	ds, in := testInputs(t, 0.02)
	res, err := core.Run(context.Background(), in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ours, _ := orgfactor.Theta(res.Mapping)
	base, _ := orgfactor.Theta(baseline.AS2Org(ds.WHOIS))
	plus, _ := orgfactor.Theta(baseline.AS2OrgPlus(ds.WHOIS, ds.PDB, baseline.Config{}))
	if !(ours > plus && plus > base) {
		t.Errorf("θ ordering: borges=%v plus=%v base=%v", ours, plus, base)
	}
}

func TestGroundTruthAccuracy(t *testing.T) {
	// Borges merges should overwhelmingly agree with ground truth:
	// pairs it unites should really be under one owner.
	ds, in := testInputs(t, 0.02)
	res, err := core.Run(context.Background(), in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var agree, disagree int
	for i := range res.Mapping.Clusters {
		c := &res.Mapping.Clusters[i]
		if c.Size() < 2 {
			continue
		}
		anchor := c.ASNs[0]
		for _, a := range c.ASNs[1:] {
			if ds.Truth.SameOrg(anchor, a) {
				agree++
			} else {
				disagree++
			}
		}
	}
	if agree == 0 {
		t.Fatal("no multi-network clusters formed")
	}
	precision := float64(agree) / float64(agree+disagree)
	// The deliberate error sources (hard FPs, the white-label favicon
	// group) keep this below 1.0, but it must stay high.
	if precision < 0.97 {
		t.Errorf("merge precision = %.4f, want ≥ 0.97 (agree=%d disagree=%d)",
			precision, agree, disagree)
	}
}

func TestFlagshipMergers(t *testing.T) {
	ds, in := testInputs(t, 0.02)
	res, err := core.Run(context.Background(), in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mapping
	// Edgecast ↔ Limelight via the edg.io redirect (R&R).
	if m.ClusterOf(15133) != m.ClusterOf(22822) {
		t.Error("Edgecast and Limelight not merged")
	}
	// Each named conglomerate consolidates beyond its main WHOIS org.
	for _, key := range []string{"deutsche-telekom", "digicel", "claro"} {
		org := ds.Truth.Org("cong:" + key)
		main := org.ASNs[0]
		base := baseline.AS2Org(ds.WHOIS).ClusterOf(main).Size()
		got := m.ClusterOf(main).Size()
		if got <= base {
			t.Errorf("%s: Borges size %d not above AS2Org size %d", key, got, base)
		}
	}
	// The DE-CIX family stays apart: its favicon group is the designed
	// classifier false negative and no other signal links it.
	decix := ds.Truth.Org("special:decix")
	if len(decix.ASNs) >= 2 && m.ClusterOf(decix.ASNs[0]) == m.ClusterOf(decix.ASNs[1]) {
		t.Error("DE-CIX family should remain unmerged (designed FN)")
	}
}

func TestAblationOptionsChangeOutcomes(t *testing.T) {
	_, in := testInputs(t, 0.02)
	ctx := context.Background()
	f := core.Features{NotesAka: true}

	model := simllm.NewModel()
	in.Provider = model
	if _, err := core.Run(ctx, in, core.Options{Features: &f}); err != nil {
		t.Fatal(err)
	}
	withFilter := model.IECalls()

	model2 := simllm.NewModel()
	in.Provider = model2
	if _, err := core.Run(ctx, in, core.Options{Features: &f, DisableInputFilter: true}); err != nil {
		t.Fatal(err)
	}
	if model2.IECalls() <= withFilter {
		t.Errorf("disabling the input filter should raise LLM calls: %d vs %d",
			model2.IECalls(), withFilter)
	}
}

func TestFeatureLabel(t *testing.T) {
	cases := []struct {
		f    core.Features
		want string
	}{
		{core.Features{}, "AS2Org"},
		{core.Features{OIDP: true}, "OID_P"},
		{core.AllFeatures(), "OID_P + N&A + R&R + F"},
		{core.Features{RR: true, Favicons: true}, "R&R + F"},
	}
	for _, c := range cases {
		if got := c.f.Label(); got != c.want {
			t.Errorf("Label(%+v) = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestFeatureMapping(t *testing.T) {
	sets := []cluster.SiblingSet{
		{ASNs: []asnum.ASN{1, 2}, Source: cluster.FeatureRR},
		{ASNs: []asnum.ASN{3}, Source: cluster.FeatureRR},
	}
	m := core.FeatureMapping(sets)
	if m.NumASNs() != 3 || m.NumOrgs() != 2 {
		t.Errorf("FeatureMapping: %d ASNs / %d orgs", m.NumASNs(), m.NumOrgs())
	}
}

func TestRunCancelled(t *testing.T) {
	_, in := testInputs(t, 0.01)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.Run(ctx, in, core.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
