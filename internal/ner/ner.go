// Package ner implements Borges's learning-based Named-Entity
// Recognition module (§4.2): extraction of sibling ASNs from the
// unstructured PeeringDB "notes" and "aka" fields with few-shot LLM
// prompting.
//
// The module has three stages, mirroring the paper:
//
//  1. Input filter: only entries whose notes or aka contain numbers are
//     sent to the model — entries without numbers cannot carry ASNs.
//  2. Information extraction: the prompt of Listing 2 instructs the
//     model to report only sibling ASNs, ignoring upstreams, peers, BGP
//     communities, and other numeric noise (phone numbers, years,
//     prefix limits).
//  3. Output filter: to prevent hallucinations, only number sequences
//     that literally appear in the notes or aka text are kept.
package ner

import (
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/fanout"
	"github.com/nu-aqualab/borges/internal/llm"
	"github.com/nu-aqualab/borges/internal/peeringdb"
)

// DefaultModel is the model the paper used.
const DefaultModel = "gpt-4o-mini"

// Record is one PeeringDB entry to extract from.
type Record struct {
	ASN   asnum.ASN
	Notes string
	Aka   string
}

// Extraction is the structured result for one record.
type Extraction struct {
	Record Record
	// Siblings are the ASNs the model attributed to the same
	// organization, after the output filter.
	Siblings []asnum.ASN
	// Reason is the model's explanation (kept for auditability).
	Reason string
	// Filtered reports sibling candidates dropped by the output filter
	// (hallucinated numbers not present in the text).
	Filtered []asnum.ASN
	// Skipped is true when the input filter dropped the record without
	// querying the model.
	Skipped bool
	// Err records a model or parse failure for this record.
	Err error
}

// hasDigit reports whether s contains any decimal digit.
func hasDigit(s string) bool {
	for _, r := range s {
		if r >= '0' && r <= '9' {
			return true
		}
	}
	return false
}

// InputFilter implements the dropout filter: true when the record's text
// fields contain numeric information and should reach the model.
func InputFilter(r Record) bool { return hasDigit(r.Notes) || hasDigit(r.Aka) }

// promptTemplate is Listing 2 of the paper, verbatim up to Go formatting.
const promptTemplate = `You are a network topology expert who wants to find Autonomous Systems(ASs) that belongs to the same organization by reading the peeringdb information.

Please inform the ASs that are peering with the original AS.
Don't inform the AS that the original AS is connected to, inform the one that are peering as the same organization.
If some AS number is mentioned in the 'as-in' and 'as-out' sections in the Notes field, it doesn't mean that they belong to the same organization.

The PeeringDB information for the ASN %s is:

Notes: %s

AKA: %s

%s

Just inform an AS if it is number is explicitly written in the AKA or Notes fields provided.
Yo don't know the relation between a company name and its AS number.
Also explain why you choose the ASs informed.
`

// FormatInstructions is the {format_instructions} block: it requests a
// JSON object so the response parses deterministically.
const FormatInstructions = `Respond with a single JSON object of the form {"siblings": ["AS<number>", ...], "reason": "<short explanation>"} and nothing else. Use an empty list when no sibling ASNs are reported.`

// BuildPrompt renders the Listing 2 prompt for one record.
func BuildPrompt(r Record) string {
	return fmt.Sprintf(promptTemplate, r.ASN.String(), r.Notes, r.Aka, FormatInstructions)
}

// jsonObjectRe locates the first JSON object in a model response; models
// occasionally wrap JSON in code fences or prose despite instructions.
var jsonObjectRe = regexp.MustCompile(`(?s)\{.*\}`)

// ParseResponse extracts the sibling list and reason from a model
// response to a BuildPrompt query.
func ParseResponse(content string) ([]asnum.ASN, string, error) {
	blob := jsonObjectRe.FindString(content)
	if blob == "" {
		return nil, "", fmt.Errorf("ner: no JSON object in model response %q", truncate(content, 80))
	}
	var payload struct {
		Siblings []string `json:"siblings"`
		Reason   string   `json:"reason"`
	}
	if err := json.Unmarshal([]byte(blob), &payload); err != nil {
		return nil, "", fmt.Errorf("ner: decode model response: %w", err)
	}
	var out []asnum.ASN
	for _, s := range payload.Siblings {
		a, err := asnum.Parse(s)
		if err != nil {
			// Tolerate junk entries; they are dropped rather than
			// failing the record, matching the output filter's spirit.
			continue
		}
		out = append(out, a)
	}
	return asnum.Dedup(out), payload.Reason, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// numberRe matches the number sequences the output filter validates
// against: any run of digits in the source text.
var numberRe = regexp.MustCompile(`\d+`)

// OutputFilter drops extracted ASNs whose digit sequence does not appear
// verbatim in the record's notes or aka — the anti-hallucination guard of
// §4.2. It also drops the record's own ASN (a network is not its own
// sibling) and IANA-reserved ASNs. It returns kept and dropped lists.
func OutputFilter(r Record, candidates []asnum.ASN) (kept, dropped []asnum.ASN) {
	present := make(map[string]bool)
	for _, m := range numberRe.FindAllString(r.Notes, -1) {
		present[strings.TrimLeft(m, "0")] = true
		present[m] = true
	}
	for _, m := range numberRe.FindAllString(r.Aka, -1) {
		present[strings.TrimLeft(m, "0")] = true
		present[m] = true
	}
	for _, a := range candidates {
		digits := fmt.Sprintf("%d", uint32(a))
		switch {
		case a == r.ASN:
			// Own ASN: silently ignored, not a hallucination.
		case a.IsReserved() || !present[digits]:
			dropped = append(dropped, a)
		default:
			kept = append(kept, a)
		}
	}
	return kept, dropped
}

// Extractor runs the three-stage pipeline against a Provider.
type Extractor struct {
	// Provider generates completions; required.
	Provider llm.Provider
	// Model overrides DefaultModel when non-empty.
	Model string
	// Concurrency bounds parallel model calls (default 8).
	Concurrency int
	// DisableInputFilter bypasses the numeric dropout filter
	// (ablation: every record reaches the model).
	DisableInputFilter bool
	// DisableOutputFilter bypasses the anti-hallucination filter
	// (ablation).
	DisableOutputFilter bool
}

// Extract runs one record through the pipeline.
func (e *Extractor) Extract(ctx context.Context, r Record) Extraction {
	out := Extraction{Record: r}
	if !e.DisableInputFilter && !InputFilter(r) {
		out.Skipped = true
		return out
	}
	model := e.Model
	if model == "" {
		model = DefaultModel
	}
	resp, err := e.Provider.Complete(ctx, llm.Request{
		Model:       model,
		Temperature: 0,
		TopP:        1,
		Messages: []llm.Message{
			{Role: llm.RoleUser, Content: BuildPrompt(r)},
		},
	})
	if err != nil {
		out.Err = fmt.Errorf("ner: %v: %w", r.ASN, err)
		return out
	}
	siblings, reason, err := ParseResponse(resp.Content)
	if err != nil {
		out.Err = fmt.Errorf("ner: %v: %w", r.ASN, err)
		return out
	}
	out.Reason = reason
	if e.DisableOutputFilter {
		out.Siblings = siblings
		return out
	}
	out.Siblings, out.Filtered = OutputFilter(r, siblings)
	return out
}

// ExtractAll runs every record on Concurrency workers, preserving
// input order in the result slice. When ctx is cancelled mid-batch,
// records no worker has claimed yet are marked with ctx.Err() instead
// of issuing further model calls, so a failing sibling pipeline stage
// stops the LLM fan-out promptly.
func (e *Extractor) ExtractAll(ctx context.Context, records []Record) []Extraction {
	conc := e.Concurrency
	if conc <= 0 {
		conc = 8
	}
	results := make([]Extraction, len(records))
	fanout.Each(len(records), conc, func(i int) {
		if err := ctx.Err(); err != nil {
			results[i] = Extraction{Record: records[i], Err: err}
			return
		}
		results[i] = e.Extract(ctx, records[i])
	})
	return results
}

// RecordsFromPDB converts PeeringDB nets with text fields into NER
// records, in ASN order.
func RecordsFromPDB(s *peeringdb.Snapshot) []Record {
	nets := s.NetsWithText()
	out := make([]Record, 0, len(nets))
	for _, n := range nets {
		out = append(out, Record{ASN: n.ASN, Notes: n.Notes, Aka: n.Aka})
	}
	return out
}

// SiblingSets converts extractions into sibling sets (the N&A feature):
// each record with at least one extracted sibling yields the set
// {record ASN} ∪ siblings.
func SiblingSets(extractions []Extraction) []cluster.SiblingSet {
	var out []cluster.SiblingSet
	for _, ex := range extractions {
		if len(ex.Siblings) == 0 {
			continue
		}
		asns := append([]asnum.ASN{ex.Record.ASN}, ex.Siblings...)
		out = append(out, cluster.SiblingSet{
			ASNs:     asnum.Dedup(asns),
			Source:   cluster.FeatureNotesAka,
			Evidence: ex.Record.ASN.String() + " notes/aka",
		})
	}
	return out
}
