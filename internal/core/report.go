package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/nu-aqualab/borges/internal/llm"
	"github.com/nu-aqualab/borges/internal/resilience"
)

// Source names used in RunReport entries, in canonical stage order.
const (
	SourceNotesAka = "notes_aka"
	SourceCrawl    = "crawl"
	SourceRR       = "rr"
	SourceFavicons = "favicons"
)

// Status values for sources and for the run as a whole.
const (
	StatusOK       = "ok"
	StatusDegraded = "degraded"
	StatusFailed   = "failed"
	StatusDisabled = "disabled"
)

// QuarantinedItem is one unit of work the pipeline gave up on after a
// transient fault exhausted its retry budget (or was never retried).
// Quarantined items are exactly the work a later run over the same
// cache will redo: durable failures (404s, unresolvable hosts) are
// cached and excluded.
type QuarantinedItem struct {
	// Source is the chain that dropped the item (SourceCrawl, ...).
	Source string `json:"source"`
	// Key identifies the item: the canonical URL for crawls, "AS<n>"
	// for notes/aka records, "favicon:<hash>" for classifier groups.
	Key string `json:"key"`
	// Err is the final error after retries were exhausted.
	Err string `json:"err"`
}

// SourceReport summarizes one inference chain's health.
type SourceReport struct {
	Name   string `json:"name"`
	Status string `json:"status"`
	// Items counts units processed (records, crawl tasks, groups).
	Items int `json:"items"`
	// Errors counts per-item failures of any kind, including durable
	// ones that are correctly cached and will not be redone.
	Errors int `json:"errors"`
	// Quarantined counts the transient subset of Errors, deduplicated
	// by key.
	Quarantined int `json:"quarantined"`
	// Err is set when the whole stage failed.
	Err string `json:"err,omitempty"`
}

// RunReport is the machine-readable fault accounting for one pipeline
// run: which chains degraded, what was quarantined, and what the
// resilience layer spent getting there. borgesd surfaces it through
// /v1/stats and folds its Status into /healthz.
type RunReport struct {
	// Status is StatusOK when every enabled chain completed cleanly,
	// StatusDegraded when any chain quarantined items or failed.
	Status  string         `json:"status"`
	Sources []SourceReport `json:"sources"`
	// Quarantined lists the dropped items, sorted by source then key,
	// so two runs that drop the same work produce identical reports.
	Quarantined []QuarantinedItem `json:"quarantined,omitempty"`
	// Attempts/Retries/Denials aggregate the crawl and LLM executors.
	Attempts int64 `json:"attempts"`
	Retries  int64 `json:"retries"`
	Denials  int64 `json:"denials"`
	// BreakerTrips counts circuit openings across both chains;
	// OpenBreakers lists circuits still open at the end of the run.
	BreakerTrips int64    `json:"breaker_trips"`
	OpenBreakers []string `json:"open_breakers,omitempty"`
}

// Degraded reports whether the run lost any work.
func (r *RunReport) Degraded() bool { return r != nil && r.Status != StatusOK }

// QuarantinedBy returns the quarantined items of one source.
func (r *RunReport) QuarantinedBy(source string) []QuarantinedItem {
	var out []QuarantinedItem
	for _, q := range r.Quarantined {
		if q.Source == source {
			out = append(out, q)
		}
	}
	return out
}

// Quarantinable reports whether err is the kind of per-item failure
// the pipeline quarantines: a transient fault (timeout, reset, 429,
// 5xx, torn body, exhausted retries, open breaker) or a rate-limit /
// server-side LLM sentinel. Durable failures — 404s, unresolvable
// hosts, malformed responses — are the backend answering, not failing,
// and stay out of quarantine (and inside the cache).
func Quarantinable(err error) bool {
	if err == nil {
		return false
	}
	return resilience.IsTransient(err) ||
		errors.Is(err, llm.ErrRateLimited) ||
		errors.Is(err, llm.ErrServer) ||
		errors.Is(err, context.DeadlineExceeded)
}

// buildReport assembles the run's fault accounting from the stage
// outputs. It runs after the join, on the orchestrating goroutine.
func buildReport(feats Features, nerOut nerOutput, webOut webOutput, nerErr, webErr error, crawlBS *resilience.BreakerSet, llmExec *resilience.Executor) *RunReport {
	rep := &RunReport{Status: StatusOK}
	var quarantined []QuarantinedItem
	source := func(name string, enabled bool, stageErr error, items, errs int, q []QuarantinedItem) {
		sr := SourceReport{Name: name, Items: items, Errors: errs, Quarantined: len(q)}
		switch {
		case !enabled:
			sr.Status = StatusDisabled
		case stageErr != nil:
			sr.Status = StatusFailed
			sr.Err = stageErr.Error()
		case len(q) > 0:
			sr.Status = StatusDegraded
		default:
			sr.Status = StatusOK
		}
		rep.Sources = append(rep.Sources, sr)
		quarantined = append(quarantined, q...)
	}

	var nerQ []QuarantinedItem
	nerErrs := 0
	for _, x := range nerOut.extractions {
		if x.Err == nil {
			continue
		}
		nerErrs++
		if Quarantinable(x.Err) {
			nerQ = append(nerQ, QuarantinedItem{
				Source: SourceNotesAka,
				Key:    fmt.Sprintf("AS%d", x.Record.ASN),
				Err:    x.Err.Error(),
			})
		}
	}
	source(SourceNotesAka, feats.NotesAka, nerErr, len(nerOut.extractions), nerErrs, nerQ)

	// Crawl items are deduplicated by canonical URL: several reported
	// websites collapse onto one cached outcome, and the quarantine
	// list must count the work to redo, not the tasks that share it.
	crawlErrs := 0
	seen := make(map[string]bool)
	var crawlQ []QuarantinedItem
	for _, r := range webOut.crawls {
		if r.Err == nil {
			continue
		}
		crawlErrs++
		if !Quarantinable(r.Err) {
			continue
		}
		key, err := r.Task.Canonical()
		if err != nil {
			key = r.Task.URL
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		crawlQ = append(crawlQ, QuarantinedItem{Source: SourceCrawl, Key: key, Err: r.Err.Error()})
	}
	webEnabled := feats.RR || feats.Favicons
	source(SourceCrawl, webEnabled, webErr, len(webOut.crawls), crawlErrs, crawlQ)

	// R&R is a pure computation over crawl outcomes with no failure
	// modes of its own; it is listed so the report enumerates every
	// chain the mapping was built from.
	source(SourceRR, feats.RR, nil, len(webOut.rrSets), 0, nil)

	favErrs := 0
	var favQ []QuarantinedItem
	for _, o := range webOut.outcomes {
		if o.Err == nil {
			continue
		}
		favErrs++
		if Quarantinable(o.Err) {
			favQ = append(favQ, QuarantinedItem{
				Source: SourceFavicons,
				Key:    "favicon:" + o.Group.Hash,
				Err:    o.Err.Error(),
			})
		}
	}
	source(SourceFavicons, feats.Favicons, nil, len(webOut.outcomes), favErrs, favQ)

	sort.Slice(quarantined, func(i, j int) bool {
		if quarantined[i].Source != quarantined[j].Source {
			return quarantined[i].Source < quarantined[j].Source
		}
		return quarantined[i].Key < quarantined[j].Key
	})
	rep.Quarantined = quarantined

	rep.Attempts = webOut.exec.Attempts
	rep.Retries = webOut.exec.Retries
	rep.Denials = webOut.exec.Denials
	var llmBS *resilience.BreakerSet
	if llmExec != nil {
		s := llmExec.Stats()
		rep.Attempts += s.Attempts
		rep.Retries += s.Retries
		rep.Denials += s.Denials
		llmBS = llmExec.Breakers
	}
	// The two chains normally share one breaker registry; count each
	// distinct registry once.
	var open []string
	if crawlBS != nil {
		rep.BreakerTrips += crawlBS.Trips()
		open = append(open, crawlBS.Open()...)
	}
	if llmBS != nil && llmBS != crawlBS {
		rep.BreakerTrips += llmBS.Trips()
		open = append(open, llmBS.Open()...)
	}
	sort.Strings(open)
	rep.OpenBreakers = open

	for _, s := range rep.Sources {
		if s.Status == StatusDegraded || s.Status == StatusFailed {
			rep.Status = StatusDegraded
		}
	}
	return rep
}
