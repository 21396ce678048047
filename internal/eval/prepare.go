package eval

import (
	"context"
	"fmt"
	"sort"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/baseline"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/core"
	"github.com/nu-aqualab/borges/internal/llm"
	"github.com/nu-aqualab/borges/internal/synth"
)

// Data bundles everything the experiments need: the corpus with its
// ground truth, the Borges pipeline result, and both baselines.
type Data struct {
	DS     *synth.Dataset
	Borges *core.Result
	AS2Org *cluster.Mapping
	Plus   *cluster.Mapping
}

// Prepare runs the Borges pipeline and both baselines over a corpus.
// The expensive stages (crawl, LLM extraction, classification) run once;
// the Table 6 feature grid is rebuilt from the retained artifacts.
func Prepare(ctx context.Context, ds *synth.Dataset, provider llm.Provider) (*Data, error) {
	res, err := core.Run(ctx, core.Inputs{
		WHOIS:     ds.WHOIS,
		PDB:       ds.PDB,
		Transport: ds.Web,
		Provider:  provider,
	}, core.Options{LLMConcurrency: 16})
	if err != nil {
		return nil, fmt.Errorf("eval: pipeline: %w", err)
	}
	return &Data{
		DS:     ds,
		Borges: res,
		AS2Org: baseline.AS2Org(ds.WHOIS),
		Plus:   baseline.AS2OrgPlus(ds.WHOIS, ds.PDB, baseline.Config{}),
	}, nil
}

// ComboMapping consolidates the WHOIS universe plus the selected
// features' sibling sets — the organization keys derived from the
// corpus, the rest from an existing run's artifacts. It is the cheap
// way to produce every Table 6 configuration without re-crawling or
// re-prompting.
func (d *Data) ComboMapping(f core.Features) *cluster.Mapping {
	b := cluster.NewBuilder()
	b.AddUniverse(d.DS.WHOIS.ASNs()...)
	b.AddAll(d.DS.WHOIS.SiblingSets())
	if f.OIDP {
		b.AddAll(d.DS.PDB.SiblingSets())
	}
	if f.NotesAka {
		b.AddAll(d.Borges.Artifacts.NASets)
	}
	if f.RR {
		b.AddAll(d.Borges.Artifacts.RRSets)
	}
	if f.Favicons {
		b.AddAll(d.Borges.Artifacts.FaviconSets)
	}
	return b.Build(nil)
}

// orgView summarises one consolidated organization against the AS2Org
// prior: its member networks, total users, the largest prior group's
// users ("the increase over the largest prior group", §6.1), and the
// country footprints of both views.
type orgView struct {
	cluster *cluster.Cluster
	name    string

	totalUsers int64
	priorUsers int64 // users of the constituent WHOIS org with most users

	countries      []string // union over all members
	priorCountries []string // countries of the user-richest WHOIS org
}

func (v *orgView) marginal() int64 { return v.totalUsers - v.priorUsers }

// orgViews computes the per-organization population analysis for a
// mapping (usually the Borges mapping).
func (d *Data) orgViews(m *cluster.Mapping) []*orgView {
	out := make([]*orgView, 0, m.NumOrgs())
	for i := range m.Clusters {
		c := &m.Clusters[i]
		v := &orgView{cluster: c, name: c.Name}
		// Group members by WHOIS org.
		byOrg := make(map[string][]asnum.ASN)
		for _, a := range c.ASNs {
			rec := d.DS.WHOIS.AS(a)
			if rec == nil {
				continue
			}
			byOrg[rec.OrgID] = append(byOrg[rec.OrgID], a)
		}
		var best string
		var bestUsers int64 = -1
		for oid, members := range byOrg {
			u := d.DS.APNIC.UsersOfSet(members)
			if u > bestUsers || (u == bestUsers && oid < best) {
				best, bestUsers = oid, u
			}
		}
		v.totalUsers = d.DS.APNIC.UsersOfSet(c.ASNs)
		if bestUsers > 0 {
			v.priorUsers = bestUsers
			v.priorCountries = d.DS.APNIC.CountriesOfSet(byOrg[best])
		}
		v.countries = d.DS.APNIC.CountriesOfSet(c.ASNs)
		if v.name == "" && best != "" {
			if org := d.DS.WHOIS.Org(best); org != nil {
				v.name = org.Name
			}
		}
		// Prefer the user-richest constituent's name: it is the
		// "main" organization the paper's tables are keyed by.
		if best != "" {
			if org := d.DS.WHOIS.Org(best); org != nil && org.Name != "" {
				v.name = org.Name
			}
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].marginal() > out[j].marginal() })
	return out
}
