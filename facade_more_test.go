package borges_test

import (
	"bytes"
	"context"
	"testing"

	borges "github.com/nu-aqualab/borges"
)

func TestFacadeWebUniverseRoundTrip(t *testing.T) {
	u := borges.NewWebUniverse()
	u.AddSite("a.test", "icon")
	u.RedirectHost("b.test", "https://a.test/")
	var buf bytes.Buffer
	if err := borges.WriteWebUniverse(&buf, u); err != nil {
		t.Fatal(err)
	}
	back, err := borges.ReadWebUniverse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSites() != u.NumSites() {
		t.Errorf("sites: %d vs %d", back.NumSites(), u.NumSites())
	}
}

func TestFacadeMappingRoundTripAndDiff(t *testing.T) {
	w := borges.NewWHOISSnapshot("d")
	w.AddOrg(borges.WHOISOrg{ID: "A", Name: "Org A"})
	w.AddOrg(borges.WHOISOrg{ID: "B", Name: "Org B"})
	w.AddAS(borges.WHOISASRecord{ASN: 1, OrgID: "A"})
	w.AddAS(borges.WHOISASRecord{ASN: 2, OrgID: "A"})
	w.AddAS(borges.WHOISASRecord{ASN: 3, OrgID: "B"})
	m := borges.AS2Org(w)

	var buf bytes.Buffer
	if err := borges.WriteMapping(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := borges.ReadMapping(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumOrgs() != m.NumOrgs() {
		t.Errorf("orgs: %d vs %d", back.NumOrgs(), m.NumOrgs())
	}

	// Merge everything into one org and diff.
	p := borges.NewPDBSnapshot("d")
	p.AddOrg(borges.PDBOrg{ID: 1, Name: "One"})
	p.AddNet(borges.PDBNet{ID: 1, OrgID: 1, ASN: 1})
	p.AddNet(borges.PDBNet{ID: 2, OrgID: 1, ASN: 3})
	merged := borges.AS2OrgPlus(w, p)
	diff := borges.CompareMappings(m, merged)
	if diff.Merges != 1 {
		t.Errorf("diff = %s", diff.Summary())
	}
	if got := diff.MergesOf(); len(got) != 1 || got[0].Kind != borges.ChangeMerge {
		t.Errorf("merges = %+v", got)
	}
}

func TestFacadeProfilesAndProviderStack(t *testing.T) {
	if borges.AllFeatures() != (borges.Features{OIDP: true, NotesAka: true, RR: true, Favicons: true}) {
		t.Error("AllFeatures mismatch")
	}
	llama := borges.NewSimulatedLLMWithProfile(borges.ProfileLlama)
	if llama.Name != "sim-llama-8b" {
		t.Errorf("profile name = %q", llama.Name)
	}
	// Compose the production stack: rate-limited caching simulated model.
	stack := borges.NewRateLimitedProvider(
		borges.NewCachingProvider(borges.NewSimulatedLLMWithProfile(borges.ProfileGPT4oMini)),
		1000, 1000)
	// Drive one classifier-style request through the whole stack.
	resp, err := stack.Complete(context.Background(), borges.LLMRequest{
		Model: "gpt-4o-mini",
		Messages: []borges.LLMMessage{{
			Role: borges.RoleUser,
			Content: "Accessing these URLs ['https://www.orange.es/', 'https://www.orange.pl/'] " +
				"returned the attached favicon. If it is a telecommunications company, what is the " +
				"company's name? Reply only with the name of the company or technology. " +
				"If it is none of the above, reply 'I don't know'.",
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Content != "Orange" {
		t.Errorf("stacked reply = %q", resp.Content)
	}
	// Second identical request is served from the cache.
	cached := borges.NewCachingProvider(borges.NewSimulatedLLM())
	req := borges.LLMRequest{Model: "m", Messages: []borges.LLMMessage{{
		Role:    borges.RoleUser,
		Content: "Accessing these URLs ['https://a.test/'] returned the attached favicon. Reply only with the name. If it is none of the above, reply 'I don't know'.",
	}}}
	if _, err := cached.Complete(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := cached.Complete(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := cached.Cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %d/%d", st.Hits, st.Misses)
	}
}

func TestFacadeASNHelpers(t *testing.T) {
	a, err := borges.ParseASN("AS1.10")
	if err != nil || uint32(a) != 65546 {
		t.Errorf("ParseASN asdot: %v %v", a, err)
	}
	if _, err := borges.ParseASN("nope"); err == nil {
		t.Error("bad ASN should fail")
	}
}
