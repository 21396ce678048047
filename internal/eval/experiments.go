package eval

import (
	"sort"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/baseline"
	"github.com/nu-aqualab/borges/internal/classify"
	"github.com/nu-aqualab/borges/internal/core"
	"github.com/nu-aqualab/borges/internal/metrics"
	"github.com/nu-aqualab/borges/internal/ner"
	"github.com/nu-aqualab/borges/internal/orgfactor"
	"github.com/nu-aqualab/borges/internal/synth"
)

// Table3 reports the number of ASes and organizations obtained from
// each Borges feature in isolation (paper Table 3).
func (d *Data) Table3() *Table {
	t := &Table{
		ID:      "table3",
		Title:   "ASes and Organizations obtained from each feature",
		Columns: []string{"Source", "Number of ASes", "Number of Orgs"},
		Notes: []string{
			"paper: OID_P 30,955/27,712 · OID_W 117,431/95,300 · notes&aka 1,436/847 · R&R 22,523/20,065 · Favicons 1,297/319",
		},
	}
	rows := []struct {
		name string
		m    interface {
			NumASNs() int
			NumOrgs() int
		}
	}{
		{"OID_P", core.FeatureMapping(d.DS.PDB.SiblingSets())},
		{"OID_W", core.FeatureMapping(d.DS.WHOIS.SiblingSets())},
		{"notes and aka", core.FeatureMapping(d.Borges.Artifacts.NASets)},
		{"R&R", core.FeatureMapping(d.Borges.Artifacts.RRSets)},
		{"Favicons", core.FeatureMapping(d.Borges.Artifacts.FaviconSets)},
	}
	for _, r := range rows {
		t.AddRow(r.name, itoa(r.m.NumASNs()), itoa(r.m.NumOrgs()))
	}
	return t
}

// Table4 validates the information-extraction stage on a labelled
// sample mirroring the paper's 320 manually inspected records
// (187 TP + 116 TN + 12 FN + 5 FP at full scale).
func (d *Data) Table4() *Table {
	scale := d.DS.Config.Scale
	quota := func(v int) int {
		n := int(float64(v)*scale + 0.5)
		if n < 1 {
			n = 1
		}
		return n
	}
	// Index extractions by record ASN.
	extractions := make(map[uint32]ner.Extraction)
	for _, x := range d.Borges.Artifacts.Extractions {
		extractions[uint32(x.Record.ASN)] = x
	}

	// Build the evaluation sample: every hard case plus deterministic
	// (ASN-ordered) regular sibling and noise records.
	var sibling, noise, hardFN, hardFP []uint32
	for _, n := range d.DS.PDB.Nets() {
		kind, ok := d.DS.Truth.NERKind[n.ASN]
		if !ok {
			continue
		}
		a := uint32(n.ASN)
		switch kind {
		case synth.RecordSiblingText:
			sibling = append(sibling, a)
		case synth.RecordNoiseText:
			noise = append(noise, a)
		case synth.RecordHardFN:
			hardFN = append(hardFN, a)
		case synth.RecordHardFP:
			hardFP = append(hardFP, a)
		}
	}
	sample := append([]uint32(nil), hardFN...)
	sample = append(sample, hardFP...)
	if n := quota(187); n < len(sibling) {
		sibling = sibling[:n]
	}
	if n := quota(116); n < len(noise) {
		noise = noise[:n]
	}
	sample = append(sample, sibling...)
	sample = append(sample, noise...)

	var c metrics.Confusion
	for _, a := range sample {
		x := extractions[a]
		truth := d.DS.Truth.NERSiblings[asnum.ASN(a)]
		truthPos := len(truth) > 0
		predPos := len(x.Siblings) > 0
		switch {
		case truthPos && predPos && sameASNs(truth, x.Siblings):
			c.TP++
		case truthPos:
			c.FN++
		case predPos:
			c.FP++
		default:
			c.TN++
		}
	}
	t := &Table{
		ID:      "table4",
		Title:   "LLM-based Information Extraction validation (notes and aka)",
		Columns: []string{"Metric", "Value"},
		Notes: []string{
			"paper: TP 187 · TN 116 · FN 12 · FP 5 · recall 0.94 · precision 0.974 · accuracy 0.947",
		},
	}
	t.AddRow("True Positives (TP)", itoa(c.TP))
	t.AddRow("True Negatives (TN)", itoa(c.TN))
	t.AddRow("False Negatives (FN)", itoa(c.FN))
	t.AddRow("False Positives (FP)", itoa(c.FP))
	t.AddRow("Recall", ftoa(c.Recall()))
	t.AddRow("Precision", ftoa(c.Precision()))
	t.AddRow("Accuracy", ftoa(c.Accuracy()))
	return t
}

// Table5 validates the favicon classifier per decision-tree step and as
// a whole (paper Table 5).
func (d *Data) Table5() *Table {
	var s1, s2, all metrics.Confusion
	for _, o := range d.Borges.Artifacts.ClassifyOutcomes {
		if o.Decision == classify.DecisionDiscarded {
			continue
		}
		kind, known := d.DS.Truth.IconKindOf(o.Group.Hash)
		if !known {
			continue
		}
		truthCompany := kind == synth.IconCompany
		step1Company := o.Step == 1 && o.Decision == classify.DecisionCompany
		s1.Observe(truthCompany, step1Company)
		if !step1Company {
			// Step 2 reclassifies the step-1 negatives; true negatives
			// stay attributed to step 1, as in the paper's accounting.
			step2Company := o.Step == 2 && o.Decision == classify.DecisionCompany
			if step2Company {
				s2.Observe(truthCompany, true)
			} else if truthCompany {
				s2.FN++
			}
		}
		all.Observe(truthCompany, o.Decision == classify.DecisionCompany)
	}
	t := &Table{
		ID:      "table5",
		Title:   "LLM-based classifier validation per step and overall",
		Columns: []string{"Metric", "Step 1", "Step 2", "All"},
		Notes: []string{
			"paper All: TP 317 · TN 116 · FP 1 · FN 5 · precision 0.997 · recall 0.984 · accuracy 0.986",
		},
	}
	t.AddRow("True Positives (TP)", itoa(s1.TP), itoa(s2.TP), itoa(all.TP))
	t.AddRow("True Negatives (TN)", itoa(s1.TN), itoa(s2.TN), itoa(all.TN))
	t.AddRow("False Positives (FP)", itoa(s1.FP), itoa(s2.FP), itoa(all.FP))
	t.AddRow("False Negatives (FN)", itoa(s1.FN), itoa(s2.FN), itoa(all.FN))
	t.AddRow("Precision", ftoa(s1.Precision()), ftoa(s2.Precision()), ftoa(all.Precision()))
	t.AddRow("Recall", ftoa(s1.Recall()), ftoa(s2.Recall()), ftoa(all.Recall()))
	t.AddRow("Accuracy", ftoa(s1.Accuracy()), ftoa(s2.Accuracy()), ftoa(all.Accuracy()))
	return t
}

// Combos enumerates the Table 6 feature grid in presentation order.
func Combos() []core.Features {
	var out []core.Features
	for bits := 1; bits < 16; bits++ {
		out = append(out, core.Features{
			OIDP:     bits&1 != 0,
			NotesAka: bits&2 != 0,
			RR:       bits&4 != 0,
			Favicons: bits&8 != 0,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		return featureCount(out[i]) < featureCount(out[j])
	})
	return out
}

func featureCount(f core.Features) int {
	n := 0
	for _, b := range []bool{f.OIDP, f.NotesAka, f.RR, f.Favicons} {
		if b {
			n++
		}
	}
	return n
}

// Table6 reports the Organization Factor for the baselines and every
// feature combination of Borges (paper Table 6).
func (d *Data) Table6() (*Table, error) {
	t := &Table{
		ID:      "table6",
		Title:   "Organization Factor (θ) across feature combinations",
		Columns: []string{"Configuration", "θ", "Δ vs AS2Org"},
		Notes: []string{
			"paper: AS2Org 0.3343 · as2org+ 0.3467 (+3.7%) · Borges (all features) 0.3576 (+7.0%)",
		},
	}
	base, err := orgfactor.Theta(d.AS2Org)
	if err != nil {
		return nil, err
	}
	t.AddRow("AS2Org (baseline)", ftoa(base), "—")
	plus, err := orgfactor.Theta(d.Plus)
	if err != nil {
		return nil, err
	}
	t.AddRow("as2org+", ftoa(plus), pct(plus/base-1))
	// The original regex-extraction configuration, fully automated: its
	// higher θ is bought with false merges — the paper's caveat that θ
	// "does not distinguish between correct and incorrect mappings".
	regex := baseline.AS2OrgPlus(d.DS.WHOIS, d.DS.PDB, baseline.Config{UseRegexExtraction: true})
	regexTheta, err := orgfactor.Theta(regex)
	if err != nil {
		return nil, err
	}
	t.AddRow("as2org+ (regex, no curation)", ftoa(regexTheta), pct(regexTheta/base-1))
	t.Notes = append(t.Notes,
		"the regex row shows θ alone cannot rank methods: its merges include phone numbers and years read as ASNs")
	for _, f := range Combos() {
		m := d.ComboMapping(f)
		theta, err := orgfactor.Theta(m)
		if err != nil {
			return nil, err
		}
		t.AddRow("Borges "+f.Label(), ftoa(theta), pct(theta/base-1))
	}
	return t, nil
}

// Table7 compares mean organization populations between AS2Org and
// Borges for changed and unchanged organizations (paper Table 7).
func (d *Data) Table7() *Table {
	views := d.orgViews(d.Borges.Mapping)
	var changed, unchanged int
	var changedPrior, changedTotal, unchangedUsers int64
	for _, v := range views {
		if v.totalUsers <= 0 {
			continue
		}
		if v.marginal() > 0 {
			changed++
			changedPrior += v.priorUsers
			changedTotal += v.totalUsers
		} else {
			unchanged++
			unchangedUsers += v.totalUsers
		}
	}
	t := &Table{
		ID:      "table7",
		Title:   "Mean AS population of organizations with and without changes",
		Columns: []string{"", "# Organizations", "E(AS2Org)", "E(Borges)"},
		Notes: []string{
			"paper: changed 352 orgs, 3,013,751 → 3,561,258 · unchanged 25,105 orgs at 117,805",
		},
	}
	mean := func(total int64, n int) int64 {
		if n == 0 {
			return 0
		}
		return total / int64(n)
	}
	t.AddRow("Changed", itoa(changed), i64(mean(changedPrior, changed)), i64(mean(changedTotal, changed)))
	t.AddRow("Unchanged", itoa(unchanged), i64(mean(unchangedUsers, unchanged)), i64(mean(unchangedUsers, unchanged)))
	return t
}

// Table8 lists the top-20 organizations by marginal user-population
// growth (paper Table 8).
func (d *Data) Table8() *Table {
	views := d.orgViews(d.Borges.Mapping)
	t := &Table{
		ID:      "table8",
		Title:   "Top 20 marginal AS population growths",
		Columns: []string{"Company", "AS2Org", "Borges", "Difference"},
		Notes: []string{
			"paper top entries: Deutsche Telekom +21.6M · Telkom Indonesia +20.5M · Charter +17.8M · Virgin +14.4M · TIGO +12.9M",
		},
	}
	n := 0
	for _, v := range views {
		if v.marginal() <= 0 {
			continue
		}
		t.AddRow(v.name, i64(v.priorUsers), i64(v.totalUsers), i64(v.marginal()))
		if n++; n >= 20 {
			break
		}
	}
	return t
}

// Table9 lists the top-20 organizations by country-footprint growth
// (paper Table 9).
func (d *Data) Table9() *Table {
	views := d.orgViews(d.Borges.Mapping)
	type row struct {
		name         string
		prior, total int
	}
	var rows []row
	var growthOrgs, growthSum int
	for _, v := range views {
		diff := len(v.countries) - len(v.priorCountries)
		if diff <= 0 || v.totalUsers <= 0 {
			continue
		}
		growthOrgs++
		growthSum += diff
		rows = append(rows, row{v.name, len(v.priorCountries), len(v.countries)})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i].total-rows[i].prior > rows[j].total-rows[j].prior
	})
	t := &Table{
		ID:      "table9",
		Title:   "Top 20 country-level footprint growths",
		Columns: []string{"Company", "AS2Org", "Borges", "Difference"},
		Notes: []string{
			"paper: Digicel 4→25 · Zscaler 16→28 · Deutsche Telekom 3→14 · NTT 2→11; 101 growing orgs, mean +2.37 countries",
		},
	}
	if growthOrgs > 0 {
		t.Notes = append(t.Notes, "measured: "+itoa(growthOrgs)+" growing orgs, mean +"+
			ftoa(float64(growthSum)/float64(growthOrgs))+" countries")
	}
	for i, r := range rows {
		if i >= 20 {
			break
		}
		t.AddRow(r.name, itoa(r.prior), itoa(r.total), itoa(r.total-r.prior))
	}
	return t
}

// sameASNs reports whether two sibling lists contain the same ASNs.
func sameASNs(a, b []asnum.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	as := asnum.Dedup(append([]asnum.ASN(nil), a...))
	bs := asnum.Dedup(append([]asnum.ASN(nil), b...))
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
