// Package core orchestrates the full Borges pipeline (§3, Figure 2):
// organization keys from WHOIS and PeeringDB, LLM-based sibling
// extraction from notes/aka, web crawling with refresh-and-redirect
// resolution, final-URL matching, and favicon classification — then
// consolidates every feature's sibling sets into one AS-to-Organization
// mapping by transitive merging.
//
// Every feature can be toggled independently, which is how the Table 6
// ablation grid (all combinations of OID_P, N&A, R&R, and F on top of
// the WHOIS universe) is produced.
package core

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cache"
	"github.com/nu-aqualab/borges/internal/classify"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/crawler"
	"github.com/nu-aqualab/borges/internal/favicon"
	"github.com/nu-aqualab/borges/internal/llm"
	"github.com/nu-aqualab/borges/internal/ner"
	"github.com/nu-aqualab/borges/internal/peeringdb"
	"github.com/nu-aqualab/borges/internal/resilience"
	"github.com/nu-aqualab/borges/internal/urlmatch"
	"github.com/nu-aqualab/borges/internal/whois"
)

// Features selects which Borges inference features run. OID_W (the
// WHOIS universe and its organization keys) is always present: it is
// the compulsory substrate every configuration of Table 6 builds on.
type Features struct {
	OIDP     bool
	NotesAka bool
	RR       bool
	Favicons bool
}

// AllFeatures returns the full Borges configuration.
func AllFeatures() Features {
	return Features{OIDP: true, NotesAka: true, RR: true, Favicons: true}
}

// Label renders the feature set in the paper's Table 6 shorthand, e.g.
// "OID_P + N&A + R&R + F".
func (f Features) Label() string {
	out := ""
	add := func(s string) {
		if out != "" {
			out += " + "
		}
		out += s
	}
	if f.OIDP {
		add("OID_P")
	}
	if f.NotesAka {
		add("N&A")
	}
	if f.RR {
		add("R&R")
	}
	if f.Favicons {
		add("F")
	}
	if out == "" {
		return "AS2Org"
	}
	return out
}

// Inputs are the data sources and backends a pipeline run consumes.
type Inputs struct {
	// WHOIS is the AS2Org snapshot (required).
	WHOIS *whois.Snapshot
	// PDB is the PeeringDB snapshot (required when any PDB-derived
	// feature is enabled).
	PDB *peeringdb.Snapshot
	// Transport serves web requests; http.DefaultTransport when nil.
	// Simulations inject a websim.Universe.
	Transport http.RoundTripper
	// Provider generates LLM completions for the N&A and favicon
	// stages.
	Provider llm.Provider
}

// Options tune the pipeline.
type Options struct {
	// Features defaults to AllFeatures when zero; use Ablation to get
	// an explicit empty set.
	Features *Features
	// Crawler overrides crawl options; Transport is always taken from
	// Inputs.
	Crawler crawler.Options
	// LLMConcurrency bounds parallel model calls (default 8).
	LLMConcurrency int
	// DisableInputFilter / DisableOutputFilter are the NER ablations.
	DisableInputFilter  bool
	DisableOutputFilter bool
	// DisableClassifierStep2 stops the favicon tree after the
	// same-brand-label rule.
	DisableClassifierStep2 bool
	// FinalURLBlocklist overrides the Appendix D.2 default.
	FinalURLBlocklist *urlmatch.Blocklist
	// SubdomainBlocklist overrides the Appendix D.1 default.
	SubdomainBlocklist *urlmatch.Blocklist
	// Progress, when non-nil, receives a line per pipeline stage —
	// what an unattended multi-hour crawl+extract batch logs. The NER
	// and web stages run concurrently, but their lines are emitted in
	// the canonical stage order (universe, org keys, notes/aka, crawl,
	// R&R, favicons, consolidated) so logs stay deterministic.
	Progress func(format string, args ...any)
	// Cache, when non-nil, memoizes the run's expensive work: LLM
	// completions (NER extraction and favicon classification, keyed by
	// full prompt + model) and crawl outcomes (keyed by canonical URL +
	// crawl options). A cache shared across runs — ablation grids,
	// snapshot re-runs, borgesd reloads — answers repeated work without
	// touching the backend or the network; a cache with a disk tier
	// survives process restarts.
	Cache *cache.Cache

	// MaxRetries bounds additional attempts per backend call — crawl
	// fetches, favicon fetches, and LLM completions — after a transient
	// fault (timeouts, resets, 429/5xx, torn bodies). 0 disables
	// retries: every fault surfaces after a single attempt and is
	// quarantined in the RunReport instead of being retried.
	MaxRetries int
	// RetryBaseDelay is the first retry's backoff (default 250ms);
	// later retries double it, with jitter, up to RetryMaxDelay.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps both computed backoff and server Retry-After
	// hints (default 30s).
	RetryMaxDelay time.Duration
	// RetryBudget bounds total retries across the whole run, shared by
	// the crawl and LLM chains (0 = unbounded). When the budget is
	// spent, remaining faults quarantine immediately.
	RetryBudget int
	// RetrySeed seeds backoff jitter so retry schedules — and
	// therefore chaos tests — are reproducible.
	RetrySeed int64
	// BreakerThreshold, when > 0, enables circuit breakers: that many
	// consecutive transient failures against one host ("crawl:<host>")
	// or model ("llm:<model>") open its circuit, shedding further
	// calls until a cooldown probe succeeds, so one melting backend
	// cannot absorb the run's retry budget.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects calls before
	// admitting a probe (default 30s).
	BreakerCooldown time.Duration
}

// retryPolicy builds the run's shared retry policy, or nil when
// retries are disabled. Both chains draw on one budget; each gets its
// own Policy value because the classification of "retryable" differs
// (the LLM chain also retries the ErrRateLimited/ErrServer sentinels).
func (o Options) retryPolicy(budget *resilience.Budget, retryable func(error) bool) *resilience.Policy {
	if o.MaxRetries <= 0 {
		return nil
	}
	return &resilience.Policy{
		MaxAttempts: o.MaxRetries + 1,
		BaseDelay:   o.RetryBaseDelay,
		MaxDelay:    o.RetryMaxDelay,
		Seed:        o.RetrySeed,
		Budget:      budget,
		Retryable:   retryable,
	}
}

// breakerSet builds the run's shared breaker registry, or nil when
// breaking is disabled. One registry serves both chains; the key
// namespaces ("crawl:", "llm:") keep their circuits independent.
func (o Options) breakerSet() *resilience.BreakerSet {
	if o.BreakerThreshold <= 0 {
		return nil
	}
	return &resilience.BreakerSet{Threshold: o.BreakerThreshold, Cooldown: o.BreakerCooldown}
}

// progress emits a stage line when a sink is configured.
func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// Artifacts are the intermediate products of a run that evaluation
// reads. The organization-key sets are not kept: they are pure
// functions of the inputs (Inputs.WHOIS and Inputs.PDB SiblingSets).
type Artifacts struct {
	Extractions      []ner.Extraction
	ClassifyOutcomes []classify.Outcome

	NASets      []cluster.SiblingSet
	RRSets      []cluster.SiblingSet
	FaviconSets []cluster.SiblingSet
}

// Stats are the §5.2 corpus statistics of a run.
type Stats struct {
	WHOISASNs int
	WHOISOrgs int
	PDBNets   int
	PDBOrgs   int

	NetsWithText    int
	NumericEntries  int
	NumericInAka    int
	NumericInNotes  int
	ExtractedASNs   int
	RecordsWithSibs int

	NetsWithWebsite int
	UniqueURLs      int
	// BadURLs counts reported websites whose URL failed
	// canonicalization and therefore never became a crawl task.
	BadURLs         int
	ReachableURLs   int
	UniqueFinalURLs int
	FaviconStats    favicon.Stats
	CompanyGroups   int
	FrameworkGroups int
	UnknownGroups   int
	DiscardedGroups int
	Step1Companies  int
	Step2Companies  int
}

// merge folds a stage's privately accumulated counters into s. Stages
// run concurrently but each populates its own Stats value; merging
// happens on the orchestrating goroutine after the join, so no counter
// is ever written from two goroutines.
func (s *Stats) merge(o Stats) {
	s.NetsWithText += o.NetsWithText
	s.NumericEntries += o.NumericEntries
	s.NumericInAka += o.NumericInAka
	s.NumericInNotes += o.NumericInNotes
	s.ExtractedASNs += o.ExtractedASNs
	s.RecordsWithSibs += o.RecordsWithSibs

	s.NetsWithWebsite += o.NetsWithWebsite
	s.UniqueURLs += o.UniqueURLs
	s.BadURLs += o.BadURLs
	s.ReachableURLs += o.ReachableURLs
	s.UniqueFinalURLs += o.UniqueFinalURLs
	s.FaviconStats.FinalURLs += o.FaviconStats.FinalURLs
	s.FaviconStats.UniqueFavicons += o.FaviconStats.UniqueFavicons
	s.FaviconStats.SharedFavicons += o.FaviconStats.SharedFavicons
	s.FaviconStats.URLsInSharedGroups += o.FaviconStats.URLsInSharedGroups
	s.FaviconStats.SharedSameBrand += o.FaviconStats.SharedSameBrand
	s.CompanyGroups += o.CompanyGroups
	s.FrameworkGroups += o.FrameworkGroups
	s.UnknownGroups += o.UnknownGroups
	s.DiscardedGroups += o.DiscardedGroups
	s.Step1Companies += o.Step1Companies
	s.Step2Companies += o.Step2Companies
}

// Result is the output of a pipeline run.
type Result struct {
	// Mapping is the consolidated AS-to-Organization mapping over the
	// full WHOIS universe.
	Mapping   *cluster.Mapping
	Artifacts Artifacts
	Stats     Stats
	// Report is the machine-readable fault accounting for the run:
	// per-source status, quarantined items, retries spent, breaker
	// trips. Always non-nil on success.
	Report *RunReport
}

// stageLog buffers one concurrent stage's progress lines so they can
// be replayed in canonical stage order after the join, keeping
// Progress output deterministic while the stages themselves overlap.
type stageLog struct {
	lines []string
}

func (l *stageLog) printf(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *stageLog) flush(opts Options) {
	for _, line := range l.lines {
		opts.progress("%s", line)
	}
}

// Run executes the pipeline.
func Run(ctx context.Context, in Inputs, opts Options) (*Result, error) {
	if in.WHOIS == nil {
		return nil, fmt.Errorf("core: WHOIS snapshot is required")
	}
	feats := AllFeatures()
	if opts.Features != nil {
		feats = *opts.Features
	}
	needPDB := feats.OIDP || feats.NotesAka || feats.RR || feats.Favicons
	if needPDB && in.PDB == nil {
		return nil, fmt.Errorf("core: PeeringDB snapshot is required for features %s", feats.Label())
	}
	if (feats.NotesAka || feats.Favicons) && in.Provider == nil {
		return nil, fmt.Errorf("core: LLM provider is required for features %s", feats.Label())
	}

	res := &Result{}
	res.Stats.WHOISASNs = in.WHOIS.NumASNs()
	res.Stats.WHOISOrgs = in.WHOIS.NumOrgs()
	if in.PDB != nil {
		res.Stats.PDBNets = in.PDB.NumNets()
		res.Stats.PDBOrgs = in.PDB.NumOrgs()
	}

	opts.progress("universe: %d WHOIS ASNs in %d organizations", res.Stats.WHOISASNs, res.Stats.WHOISOrgs)
	// The builder merges each feature's sets as they arrive and keeps
	// none, so the organization keys are consolidated before the NER
	// and web stages start and their sets are garbage by then.
	b := cluster.NewBuilder()
	b.AddUniverse(in.WHOIS.ASNs()...)
	b.AddAll(in.WHOIS.SiblingSets())
	if feats.OIDP {
		sets := in.PDB.SiblingSets()
		b.AddAll(sets)
		opts.progress("org keys: %d PeeringDB organizations joined", len(sets))
	}

	// Fault-tolerance plumbing: one retry budget and one breaker
	// registry serve both chains. The crawler takes them via its
	// options (keyed "crawl:<host>"); the provider is wrapped in
	// llm.Resilient (keyed "llm:<model>") *inside* the cache layer, so
	// cache hits never touch a breaker and retried successes are
	// memoized like any other.
	var budget *resilience.Budget
	if opts.RetryBudget > 0 {
		budget = resilience.NewBudget(opts.RetryBudget)
	}
	breakers := opts.breakerSet()
	if opts.Crawler.Retry == nil {
		opts.Crawler.Retry = opts.retryPolicy(budget, nil)
	}
	if opts.Crawler.Breakers == nil {
		opts.Crawler.Breakers = breakers
	}
	provider := in.Provider
	var llmExec *resilience.Executor
	if llmPolicy := opts.retryPolicy(budget, llm.Retryable); provider != nil && (llmPolicy != nil || breakers != nil) {
		llmExec = &resilience.Executor{Policy: llmPolicy, Breakers: breakers}
		provider = &llm.Resilient{Inner: provider, Exec: llmExec}
	}
	if opts.Cache != nil && provider != nil {
		provider = &cache.Provider{Inner: provider, Cache: opts.Cache}
	}

	// The NER stage (LLM extraction over notes/aka) and the web stage
	// (crawl → R&R → favicons) are independent until consolidation, so
	// they overlap: each accumulates its own Stats and progress lines
	// and hands its sibling sets back here, where only this goroutine
	// touches the Builder. The stages are isolated failure domains: one
	// chain's failure leaves the other running and is quarantined in the
	// report, and per-item failures are quarantined within each chain.
	var (
		nerOut         nerOutput
		webOut         webOutput
		nerErr, webErr error
		nerLog, webLog stageLog
		wg             sync.WaitGroup
	)
	stage := func(run func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	if feats.NotesAka {
		stage(func() { nerOut, nerErr = runNER(ctx, in, opts, provider, &nerLog) })
	}
	if feats.RR || feats.Favicons {
		stage(func() { webOut, webErr = runWeb(ctx, in, opts, feats, provider, &webLog) })
	}
	wg.Wait()
	// Cancellation of the run's own context is fatal. A stage's private
	// failure is not: it lands in the report and consolidation proceeds
	// with the surviving chains.
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	res.Stats.merge(nerOut.stats)
	res.Stats.merge(webOut.stats)
	nerLog.flush(opts)
	webLog.flush(opts)

	res.Artifacts.Extractions = nerOut.extractions
	res.Artifacts.NASets = nerOut.sets
	b.AddAll(res.Artifacts.NASets)

	res.Artifacts.RRSets = webOut.rrSets
	res.Artifacts.ClassifyOutcomes = webOut.outcomes
	res.Artifacts.FaviconSets = webOut.faviconSets
	b.AddAll(res.Artifacts.RRSets)
	b.AddAll(res.Artifacts.FaviconSets)

	// The report is the crawl results' last reader; taking it first
	// lets the collector free them while Build runs.
	res.Report = buildReport(feats, nerOut, webOut, nerErr, webErr, opts.Crawler.Breakers, llmExec)
	res.Mapping = b.Build(namer(in))
	opts.progress("consolidated: %d networks in %d organizations",
		res.Mapping.NumASNs(), res.Mapping.NumOrgs())
	return res, nil
}

// namer prefers WHOIS organization names and falls back to PeeringDB.
func namer(in Inputs) cluster.Namer {
	return func(members []asnum.ASN) string {
		for _, a := range members {
			if org := in.WHOIS.OrgOf(a); org != nil && org.Name != "" {
				return org.Name
			}
		}
		if in.PDB != nil {
			for _, a := range members {
				if org := in.PDB.OrgOf(a); org != nil && org.Name != "" {
					return org.Name
				}
			}
		}
		return ""
	}
}

// nerOutput is everything the notes/aka stage produces.
type nerOutput struct {
	extractions []ner.Extraction
	sets        []cluster.SiblingSet
	stats       Stats
}

func runNER(ctx context.Context, in Inputs, opts Options, provider llm.Provider, log *stageLog) (nerOutput, error) {
	var out nerOutput
	records := ner.RecordsFromPDB(in.PDB)
	out.stats.NetsWithText = len(records)
	for _, r := range records {
		numeric := false
		if hasDigit(r.Aka) {
			out.stats.NumericInAka++
			numeric = true
		}
		if hasDigit(r.Notes) {
			out.stats.NumericInNotes++
			numeric = true
		}
		if numeric {
			out.stats.NumericEntries++
		}
	}
	ex := &ner.Extractor{
		Provider:            provider,
		Concurrency:         opts.LLMConcurrency,
		DisableInputFilter:  opts.DisableInputFilter,
		DisableOutputFilter: opts.DisableOutputFilter,
	}
	out.extractions = ex.ExtractAll(ctx, records)
	if err := ctx.Err(); err != nil {
		return out, err
	}
	seen := make(map[asnum.ASN]bool)
	for _, x := range out.extractions {
		if len(x.Siblings) > 0 {
			out.stats.RecordsWithSibs++
			for _, a := range x.Siblings {
				if !seen[a] {
					seen[a] = true
					out.stats.ExtractedASNs++
				}
			}
		}
	}
	out.sets = ner.SiblingSets(out.extractions)
	log.printf("notes/aka: %d of %d numeric records yielded %d sibling ASNs",
		out.stats.RecordsWithSibs, out.stats.NumericEntries, out.stats.ExtractedASNs)
	return out, nil
}

// webOutput is everything the crawl → R&R → favicon stage produces.
type webOutput struct {
	crawls      []crawler.Result
	rrSets      []cluster.SiblingSet
	outcomes    []classify.Outcome
	faviconSets []cluster.SiblingSet
	stats       Stats
	exec        resilience.ExecStats
}

func runWeb(ctx context.Context, in Inputs, opts Options, feats Features, provider llm.Provider, log *stageLog) (webOutput, error) {
	var out webOutput
	copts := opts.Crawler
	copts.Transport = in.Transport
	copts.SkipFavicons = !feats.Favicons
	copts.Cache = opts.Cache
	cr := crawler.New(copts)

	// One pass builds the task list and the unique-URL count together;
	// websites that fail canonicalization never become tasks (the
	// crawler could only fail them again) and are surfaced in BadURLs
	// instead of being silently dropped from the unique count.
	nets := in.PDB.NetsWithWebsite()
	out.stats.NetsWithWebsite = len(nets)
	tasks := make([]crawler.Task, 0, len(nets))
	uniqueReported := make(map[string]bool, len(nets))
	for _, n := range nets {
		t, err := crawler.NewTask(n.ASN, n.Website)
		if err != nil {
			out.stats.BadURLs++
			continue
		}
		tasks = append(tasks, t)
		canon, _ := t.Canonical() // computed by NewTask, which succeeded
		uniqueReported[canon] = true
	}
	out.stats.UniqueURLs = len(uniqueReported)

	log.printf("crawl: resolving %d reported websites (%d unique URLs, %d malformed)",
		len(tasks), out.stats.UniqueURLs, out.stats.BadURLs)
	out.crawls = cr.CrawlAll(ctx, tasks)
	if err := ctx.Err(); err != nil {
		return out, err
	}
	uniqueFinal := make(map[string]bool)
	for _, r := range out.crawls {
		if r.OK {
			out.stats.ReachableURLs++
			uniqueFinal[r.FinalURL] = true
		}
	}
	out.stats.UniqueFinalURLs = len(uniqueFinal)

	log.printf("crawl: %d reachable, %d unique final URLs",
		out.stats.ReachableURLs, out.stats.UniqueFinalURLs)
	if feats.RR {
		m := urlmatch.NewMatcher(opts.FinalURLBlocklist)
		out.rrSets = m.SiblingSets(crawler.FinalURLs(out.crawls))
		log.printf("R&R: %d final-URL groups", len(out.rrSets))
	}

	if feats.Favicons {
		idx := favicon.NewIndex()
		for _, r := range out.crawls {
			if r.OK {
				idx.Add(r.FinalURL, r.FaviconHash, r.Task.ASN)
			}
		}
		shared := idx.SharedGroups()
		out.stats.FaviconStats = idx.StatsOf(shared)

		cls := &classify.Classifier{
			Provider:     provider,
			Blocklist:    opts.SubdomainBlocklist,
			IconSource:   cr.IconBytes,
			DisableStep2: opts.DisableClassifierStep2,
			Concurrency:  opts.LLMConcurrency,
		}
		out.outcomes = cls.ClassifyAll(ctx, shared)
		if err := ctx.Err(); err != nil {
			return out, err
		}
		for _, o := range out.outcomes {
			switch o.Decision {
			case classify.DecisionCompany:
				out.stats.CompanyGroups++
				if o.Step == 1 {
					out.stats.Step1Companies++
				} else {
					out.stats.Step2Companies++
				}
			case classify.DecisionFramework:
				out.stats.FrameworkGroups++
			case classify.DecisionUnknown:
				out.stats.UnknownGroups++
			case classify.DecisionDiscarded:
				out.stats.DiscardedGroups++
			}
		}
		out.faviconSets = classify.SiblingSets(out.outcomes)
		log.printf("favicons: %d shared groups → %d companies (%d step 1, %d step 2), %d frameworks",
			len(out.outcomes), out.stats.CompanyGroups,
			out.stats.Step1Companies, out.stats.Step2Companies, out.stats.FrameworkGroups)
	}
	out.exec = cr.ExecStats()
	return out, nil
}

func hasDigit(s string) bool {
	for _, r := range s {
		if r >= '0' && r <= '9' {
			return true
		}
	}
	return false
}

// FeatureMapping consolidates a single feature's sibling sets in
// isolation, covering only the networks those sets mention. This is the
// Table 3 per-feature view ("Number of ASes / Number of Orgs" per
// source).
func FeatureMapping(sets []cluster.SiblingSet) *cluster.Mapping {
	b := cluster.NewBuilder()
	b.AddAll(sets)
	return b.Build(nil)
}
