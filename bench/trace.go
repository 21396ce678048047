package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around an exported function. Spans of one traced operation (a build,
// a ladder rung) share a trace ID; Parent is 0 for a trace's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs share the traced code paths.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span. The zero value is a no-op handle, and as a
// parent it starts a new trace.
type spanRef struct {
	t      *tracer
	id     int64
	parent int64
	trace  int64
	name   string
	start  time.Time
}

// start opens a span named name under parent (the zero spanRef for a
// trace root).
func (t *tracer) start(name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.ids.Add(1)
	trace := parent.trace
	if parent.id == 0 {
		trace = id
	}
	return spanRef{t: t, id: id, parent: parent.id, trace: trace, name: name, start: time.Now()}
}

// end closes the span and returns its duration.
func (s spanRef) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{
		ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name,
		Start: int64(s.start.Sub(s.t.epoch)), End: int64(now.Sub(s.t.epoch)),
	})
	s.t.mu.Unlock()
	return now.Sub(s.start)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime aggregates every span of one name.
type layerTime struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes returns, per span name, the summed duration and self time:
// a span's duration minus the part of its interval that the union of
// its children covers. Concurrent children (parallel crawl fetches)
// therefore count once, not once per child.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		d := s.End - s.Start
		lt.TotalS += float64(d) / 1e9
		lt.SelfS += float64(d-covered(s.Start, s.End, children[s.ID])) / 1e9
		out[s.Name] = lt
	}
	return out
}

// covered returns how many nanoseconds of [lo, hi) the union of the
// spans' intervals covers.
func covered(lo, hi int64, spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curLo, curHi, started = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// busy returns the wall time during which at least one span named name
// under parent was open.
func busy(spans []span, parent span, name string) time.Duration {
	var kids []span
	for _, s := range spans {
		if s.Parent == parent.ID && s.Name == name {
			kids = append(kids, s)
		}
	}
	return time.Duration(covered(parent.Start, parent.End, kids))
}

// writeTrace writes each traced workload's spans and per-layer
// self-time table. Span IDs are unique within a workload.
func writeTrace(path string, results []*result) error {
	type traced struct {
		Workload string               `json:"workload"`
		Spans    []span               `json:"spans"`
		Layers   map[string]layerTime `json:"layers"`
	}
	var out struct {
		Workloads []traced `json:"workloads"`
	}
	for _, r := range results {
		out.Workloads = append(out.Workloads, traced{r.Workload, r.spans, selfTimes(r.spans)})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
