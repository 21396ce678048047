// Package classify implements the favicon/company classification stage
// of Borges's web-based inference (§4.3.3, Figure 6). Networks whose
// websites display the same favicon are candidates for common ownership,
// but default icons shipped by web technologies (Bootstrap, WordPress,
// GoDaddy, IXC Soft, …) would tie unrelated companies together. The
// decision tree therefore runs, per shared-favicon group:
//
//  1. Blocklist (Appendix D.1): URLs on mainstream communication
//     platforms are removed; groups that shrink below two URLs are
//     discarded.
//  2. Step 1 — same favicon AND same brand label ("www.orange.es" /
//     "www.orange.pl") ⇒ accepted as one company without an LLM call.
//  3. Step 2 — same favicon, differing labels ⇒ the LLM is shown the
//     icon and the final-URL list (Listing 3) and asked to name the
//     company or the hosting technology.
package classify

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/fanout"
	"github.com/nu-aqualab/borges/internal/favicon"
	"github.com/nu-aqualab/borges/internal/llm"
	"github.com/nu-aqualab/borges/internal/simllm"
	"github.com/nu-aqualab/borges/internal/urlmatch"
)

// DefaultModel is the model the paper used for this stage.
const DefaultModel = "gpt-4o-mini"

// Decision is the outcome category for one favicon group.
type Decision uint8

// Decisions.
const (
	// DecisionCompany marks a group judged to belong to one company.
	DecisionCompany Decision = iota
	// DecisionFramework marks a group sharing only a web technology's
	// default icon.
	DecisionFramework
	// DecisionUnknown marks a group the classifier could not name.
	DecisionUnknown
	// DecisionDiscarded marks a group removed by the blocklist or too
	// small after filtering.
	DecisionDiscarded
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case DecisionCompany:
		return "company"
	case DecisionFramework:
		return "framework"
	case DecisionUnknown:
		return "unknown"
	case DecisionDiscarded:
		return "discarded"
	default:
		return fmt.Sprintf("Decision(%d)", uint8(d))
	}
}

// Outcome is the classification of one favicon group.
type Outcome struct {
	Group    favicon.Group
	Decision Decision
	// Step records which tree stage decided: 1 (favicon+label) or 2
	// (LLM); 0 for discarded groups.
	Step int
	// Name is the company or technology name.
	Name string
	// Err records an LLM failure for this group.
	Err error
}

// Classifier runs the decision tree.
type Classifier struct {
	// Provider generates completions for step 2; required unless
	// DisableStep2 is set.
	Provider llm.Provider
	// Model overrides DefaultModel when non-empty.
	Model string
	// Blocklist filters platform URLs; nil selects the Appendix D.1
	// default.
	Blocklist *urlmatch.Blocklist
	// IconSource returns the icon bytes for a favicon hash; nil sends
	// step-2 prompts without an image (the URL list alone).
	IconSource func(hash string) []byte
	// DisableStep2 stops after the favicon+label rule (ablation: the
	// paper reports 43 false negatives without step 2).
	DisableStep2 bool
	// Concurrency bounds parallel LLM calls (default 8).
	Concurrency int
}

// BuildPrompt renders the Listing 3 prompt text for a group's final
// URLs. The favicon travels separately as an image attachment.
func BuildPrompt(urls []string) string {
	quoted := make([]string, len(urls))
	for i, u := range urls {
		quoted[i] = "'" + u + "'"
	}
	return fmt.Sprintf("Accessing these URLs [%s] returned the attached favicon. "+
		"If it is a telecommunications company, what is the company's name? "+
		"If it is a subsidiary, provide the parent company's name. "+
		"If it is not a telecommunications company, is it a hosting technology? "+
		"Reply only with the name of the company or technology. "+
		"If it is none of the above, reply 'I don't know'.", strings.Join(quoted, ", "))
}

// Classify runs the tree over one group.
func (c *Classifier) Classify(ctx context.Context, g favicon.Group) Outcome {
	out := Outcome{Group: g}
	bl := c.Blocklist
	if bl == nil {
		bl = urlmatch.DefaultSubdomainBlocklist()
	}
	kept := favicon.Group{Hash: g.Hash, ASNsByURL: g.ASNsByURL}
	for _, u := range g.URLs {
		if !bl.BlockedURL(u) {
			kept.URLs = append(kept.URLs, u)
			kept.ASNs = append(kept.ASNs, g.ASNsByURL[u]...)
		}
	}
	if len(kept.URLs) < 2 {
		out.Decision = DecisionDiscarded
		return out
	}
	kept.ASNs = asnum.Dedup(kept.ASNs)
	out.Group = kept

	// Step 1: identical favicon + identical brand label.
	if kept.SameBrandLabel() {
		out.Decision = DecisionCompany
		out.Step = 1
		out.Name = urlmatch.BrandLabelOfURL(kept.URLs[0])
		return out
	}
	if c.DisableStep2 {
		out.Decision = DecisionUnknown
		out.Step = 1
		return out
	}

	// Step 2: LLM reclassification of same-favicon groups.
	out.Step = 2
	model := c.Model
	if model == "" {
		model = DefaultModel
	}
	msg := llm.Message{Role: llm.RoleUser, Content: BuildPrompt(kept.URLs)}
	if c.IconSource != nil {
		if icon := c.IconSource(kept.Hash); len(icon) > 0 {
			msg.Images = [][]byte{icon}
		}
	}
	resp, err := c.Provider.Complete(ctx, llm.Request{
		Model:       model,
		Temperature: 0,
		TopP:        1,
		Messages:    []llm.Message{msg},
	})
	if err != nil {
		out.Err = fmt.Errorf("classify: favicon %.12s: %w", kept.Hash, err)
		out.Decision = DecisionUnknown
		return out
	}
	reply := strings.TrimSpace(resp.Content)
	switch {
	case simllm.IsDontKnow(reply):
		out.Decision = DecisionUnknown
	case simllm.IsFramework(reply):
		out.Decision = DecisionFramework
		out.Name = reply
	default:
		out.Decision = DecisionCompany
		out.Name = reply
	}
	return out
}

// ClassifyAll runs every group on Concurrency workers, preserving
// input order. When ctx is cancelled mid-batch, groups no worker has
// claimed yet are marked Unknown with ctx.Err() instead of issuing
// further model calls.
func (c *Classifier) ClassifyAll(ctx context.Context, groups []favicon.Group) []Outcome {
	conc := c.Concurrency
	if conc <= 0 {
		conc = 8
	}
	out := make([]Outcome, len(groups))
	fanout.Each(len(groups), conc, func(i int) {
		if err := ctx.Err(); err != nil {
			out[i] = Outcome{Group: groups[i], Decision: DecisionUnknown, Err: err}
			return
		}
		out[i] = c.Classify(ctx, groups[i])
	})
	return out
}

// SiblingSets converts company outcomes into favicon-feature sibling
// sets, in deterministic (hash-sorted) order.
func SiblingSets(outcomes []Outcome) []cluster.SiblingSet {
	sorted := append([]Outcome(nil), outcomes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Group.Hash < sorted[j].Group.Hash })
	var out []cluster.SiblingSet
	for _, o := range sorted {
		if o.Decision != DecisionCompany || len(o.Group.ASNs) == 0 {
			continue
		}
		evidence := o.Name
		if evidence == "" {
			evidence = "favicon " + o.Group.Hash
		}
		out = append(out, cluster.SiblingSet{
			ASNs:     o.Group.ASNs,
			Source:   cluster.FeatureFavicon,
			Evidence: evidence,
		})
	}
	return out
}
