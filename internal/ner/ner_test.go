package ner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/llm"
	"github.com/nu-aqualab/borges/internal/peeringdb"
)

// canned is a test provider replying with fixed content. ExtractAll
// calls it from several workers at once, so its counters are guarded.
type canned struct {
	content string
	err     error

	mu      sync.Mutex
	calls   int
	prompts []string
}

func (c *canned) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	c.mu.Lock()
	c.calls++
	c.prompts = append(c.prompts, req.Messages[len(req.Messages)-1].Content)
	c.mu.Unlock()
	if c.err != nil {
		return llm.Response{}, c.err
	}
	return llm.Response{Content: c.content}, nil
}

func TestInputFilter(t *testing.T) {
	cases := []struct {
		r    Record
		want bool
	}{
		{Record{Notes: "no numbers here"}, false},
		{Record{Notes: "sibling AS3356"}, true},
		{Record{Aka: "Level 3"}, true},
		{Record{}, false},
		{Record{Notes: "", Aka: ""}, false},
	}
	for _, c := range cases {
		if got := InputFilter(c.r); got != c.want {
			t.Errorf("InputFilter(%+v) = %v", c.r, got)
		}
	}
}

func TestBuildPromptFaithfulToListing2(t *testing.T) {
	p := BuildPrompt(Record{ASN: 3320, Notes: "some notes", Aka: "DTAG"})
	for _, want := range []string{
		"network topology expert",
		"as-in' and 'as-out'",
		"The PeeringDB information for the ASN AS3320 is:",
		"Notes: some notes",
		"AKA: DTAG",
		"explicitly written in the AKA or Notes fields",
		"Also explain why you choose the ASs informed.",
		FormatInstructions,
	} {
		if !strings.Contains(p, want) {
			t.Errorf("prompt missing %q", want)
		}
	}
}

func TestParseResponse(t *testing.T) {
	sib, reason, err := ParseResponse(`{"siblings": ["AS123", "AS456"], "reason": "listed as subsidiaries"}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sib) != 2 || sib[0] != 123 || sib[1] != 456 {
		t.Errorf("siblings = %v", sib)
	}
	if reason != "listed as subsidiaries" {
		t.Errorf("reason = %q", reason)
	}
	// Wrapped in prose / code fences.
	sib, _, err = ParseResponse("Sure! Here is the JSON:\n```json\n{\"siblings\": [\"AS7\"], \"reason\": \"x\"}\n```")
	if err != nil || len(sib) != 1 || sib[0] != 7 {
		t.Errorf("fenced parse: %v %v", sib, err)
	}
	// Junk sibling entries are tolerated and dropped.
	sib, _, err = ParseResponse(`{"siblings": ["AS9", "not-an-asn", ""], "reason": ""}`)
	if err != nil || len(sib) != 1 {
		t.Errorf("junk entries: %v %v", sib, err)
	}
	// Duplicates collapse.
	sib, _, _ = ParseResponse(`{"siblings": ["AS9", "9", "AS9"], "reason": ""}`)
	if len(sib) != 1 {
		t.Errorf("duplicates: %v", sib)
	}
	// No JSON at all.
	if _, _, err = ParseResponse("I cannot help with that."); err == nil {
		t.Error("want error for JSON-less response")
	}
	// Malformed JSON.
	if _, _, err = ParseResponse(`{"siblings": [}`); err == nil {
		t.Error("want error for malformed JSON")
	}
}

func TestOutputFilter(t *testing.T) {
	r := Record{ASN: 100, Notes: "we operate AS200 and AS300", Aka: "also 0400"}
	kept, dropped := OutputFilter(r, []asnum.ASN{200, 300, 400, 999, 100, 64512})
	wantKept := []asnum.ASN{200, 300, 400} // 400 appears as "0400"
	if len(kept) != len(wantKept) {
		t.Fatalf("kept = %v", kept)
	}
	for i := range wantKept {
		if kept[i] != wantKept[i] {
			t.Fatalf("kept = %v, want %v", kept, wantKept)
		}
	}
	// 999 hallucinated, 64512 reserved; own ASN 100 silently ignored.
	if len(dropped) != 2 {
		t.Errorf("dropped = %v", dropped)
	}
}

func TestExtractSkipsNonNumeric(t *testing.T) {
	p := &canned{content: `{"siblings": [], "reason": ""}`}
	e := &Extractor{Provider: p}
	out := e.Extract(context.Background(), Record{ASN: 1, Notes: "nothing numeric"})
	if !out.Skipped || p.calls != 0 {
		t.Errorf("out=%+v calls=%d", out, p.calls)
	}
	// Ablation: disabled input filter queries the model anyway.
	e2 := &Extractor{Provider: p, DisableInputFilter: true}
	out = e2.Extract(context.Background(), Record{ASN: 1, Notes: "nothing numeric"})
	if out.Skipped || p.calls != 1 {
		t.Errorf("ablation: out=%+v calls=%d", out, p.calls)
	}
}

func TestExtractAppliesOutputFilter(t *testing.T) {
	// Model hallucinates AS777 not present in the text.
	p := &canned{content: `{"siblings": ["AS200", "AS777"], "reason": "made up"}`}
	e := &Extractor{Provider: p}
	out := e.Extract(context.Background(), Record{ASN: 1, Notes: "sibling AS200"})
	if len(out.Siblings) != 1 || out.Siblings[0] != 200 {
		t.Errorf("siblings = %v", out.Siblings)
	}
	if len(out.Filtered) != 1 || out.Filtered[0] != 777 {
		t.Errorf("filtered = %v", out.Filtered)
	}
	// Ablation: without the output filter the hallucination survives.
	e2 := &Extractor{Provider: p, DisableOutputFilter: true}
	out = e2.Extract(context.Background(), Record{ASN: 1, Notes: "sibling AS200"})
	if len(out.Siblings) != 2 {
		t.Errorf("ablation siblings = %v", out.Siblings)
	}
}

func TestExtractErrorPaths(t *testing.T) {
	e := &Extractor{Provider: &canned{err: errors.New("boom")}}
	out := e.Extract(context.Background(), Record{ASN: 1, Notes: "AS2"})
	if out.Err == nil {
		t.Error("provider error should surface")
	}
	e = &Extractor{Provider: &canned{content: "no json here"}}
	out = e.Extract(context.Background(), Record{ASN: 1, Notes: "AS2"})
	if out.Err == nil {
		t.Error("parse error should surface")
	}
}

func TestExtractAllOrder(t *testing.T) {
	p := &canned{content: `{"siblings": [], "reason": ""}`}
	e := &Extractor{Provider: p, Concurrency: 4}
	var records []Record
	for i := 0; i < 50; i++ {
		records = append(records, Record{ASN: asnum.ASN(i + 1), Notes: fmt.Sprintf("entry %d", i)})
	}
	results := e.ExtractAll(context.Background(), records)
	if len(results) != 50 {
		t.Fatalf("got %d results", len(results))
	}
	for i := range results {
		if results[i].Record.ASN != asnum.ASN(i+1) {
			t.Fatalf("result %d out of order: %v", i, results[i].Record.ASN)
		}
	}
}

func TestRecordsFromPDB(t *testing.T) {
	s := peeringdb.NewSnapshot("x")
	s.AddNet(peeringdb.Net{ID: 1, OrgID: 1, ASN: 10, Notes: "text"})
	s.AddNet(peeringdb.Net{ID: 2, OrgID: 1, ASN: 5, Aka: "alias"})
	s.AddNet(peeringdb.Net{ID: 3, OrgID: 1, ASN: 7}) // no text
	records := RecordsFromPDB(s)
	if len(records) != 2 || records[0].ASN != 5 || records[1].ASN != 10 {
		t.Errorf("records = %v", records)
	}
}

func TestSiblingSets(t *testing.T) {
	extractions := []Extraction{
		{Record: Record{ASN: 1}, Siblings: []asnum.ASN{2, 3}},
		{Record: Record{ASN: 9}}, // empty → no set
		{Record: Record{ASN: 4}, Siblings: []asnum.ASN{4, 5}},
	}
	sets := SiblingSets(extractions)
	if len(sets) != 2 {
		t.Fatalf("sets = %v", sets)
	}
	if len(sets[0].ASNs) != 3 || sets[0].Source != cluster.FeatureNotesAka {
		t.Errorf("set 0 = %+v", sets[0])
	}
	if len(sets[1].ASNs) != 2 { // dedup of record ASN
		t.Errorf("set 1 = %+v", sets[1])
	}
}
