package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cache"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/mapdiff"
	"github.com/nu-aqualab/borges/internal/serve"
	"github.com/nu-aqualab/borges/internal/synth"
)

// pinnedHashes are the content hashes seed 1 at paper scale must
// reproduce: A with every feature, B without favicons.
var pinnedHashes = struct{ a, b string }{"9eb312d83e93", "aa0200cd8c41"}

// served is the serving set-up: artifact A, the A↔B deltas, and the
// snapshots the expected answers come from.
type served struct {
	artA     string // artifact borgesd serves (and reloads in full)
	live     string // the delta file borgesd's -delta-in names
	deltaAB  []byte
	deltaBA  []byte
	snapA    *serve.Snapshot // nil after keepBodies
	snapB    *serve.Snapshot // nil without B, or after keepBodies
	hashA    string
	hashB    string
	asns     []asnum.ASN
	tokens   []string
	deltaLen int // lines in the A→B delta
}

// setupServe builds A (and with withB, B and both deltas) from the
// workload's corpus with cmd/borges's defaults.
func setupServe(ctx context.Context, e *env, withB bool) (*served, error) {
	ds, _, err := generate(e.seed, e.scaleOf())
	if err != nil {
		return nil, err
	}
	cA, err := cache.New(cache.Options{})
	if err != nil {
		return nil, err
	}
	a, err := build(ctx, ds, e.wl.backend, nil, cA, filepath.Join(e.work, "a.snapbin"), nil)
	if err != nil {
		return nil, err
	}
	return serveInputs(ctx, e, ds, a, withB)
}

// serveInputs completes the serving set-up around build a, whose
// artifact borgesd serves: with withB it builds B from the same corpus
// and writes the A→B delta where borgesd's -delta-in expects it.
func serveInputs(ctx context.Context, e *env, ds *synth.Dataset, a *built, withB bool) (*served, error) {
	if err := checkPinned(e.seed, e.scaleOf(), a.mapping); err != nil {
		return nil, err
	}
	s := &served{artA: a.path, live: filepath.Join(e.work, "delta.jsonl")}
	s.snapA, s.hashA = a.snap, a.hash
	s.asns = mappedASNs(a.mapping)
	s.tokens = nameTokens(a.mapping)
	if err := checkPinnedHash(e, "A", s.hashA, pinnedHashes.a); err != nil || !withB {
		return s, err
	}
	cB, err := cache.New(cache.Options{})
	if err != nil {
		return nil, err
	}
	b, err := build(ctx, ds, e.wl.backend, &featuresB, cB, filepath.Join(e.work, "b.snapbin"), nil)
	if err != nil {
		return nil, err
	}
	s.snapB, s.hashB = b.snap, b.hash
	if s.deltaAB, err = encodeDelta(mapdiff.ComputeDelta(a.mapping, b.mapping)); err != nil {
		return nil, err
	}
	if s.deltaBA, err = encodeDelta(mapdiff.ComputeDelta(b.mapping, a.mapping)); err != nil {
		return nil, err
	}
	s.deltaLen = bytes.Count(s.deltaAB, []byte{'\n'})
	if err := writeAtomic(s.live, s.deltaAB); err != nil {
		return nil, err
	}
	return s, checkPinnedHash(e, "B", s.hashB, pinnedHashes.b)
}

func checkPinnedHash(e *env, what, got, want string) error {
	if e.seed != 1 || e.scaleOf() != 1.0 || got[:len(want)] == want {
		return nil
	}
	return fmt.Errorf("seed 1 %s content hash %.12s, want %s", what, got, want)
}

func encodeDelta(d *mapdiff.Delta) ([]byte, error) {
	var buf bytes.Buffer
	err := mapdiff.WriteDelta(&buf, d)
	return buf.Bytes(), err
}

// writeAtomic replaces path with data by rename, so borgesd never reads
// a half-written delta.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func mappedASNs(m *cluster.Mapping) []asnum.ASN {
	var out []asnum.ASN
	for _, c := range m.Clusters {
		out = append(out, c.ASNs...)
	}
	slices.Sort(out)
	return out
}

// nameTokens returns the distinct search tokens of the mapping's
// organization names (maximal runs of letters and digits, as borgesd
// indexes them), at least three characters long, sorted.
func nameTokens(m *cluster.Mapping) []string {
	seen := make(map[string]bool)
	for _, c := range m.Clusters {
		start := -1
		lower := []rune(strings.ToLower(c.Name))
		for i := 0; i <= len(lower); i++ {
			alnum := i < len(lower) && (lower[i] >= 'a' && lower[i] <= 'z' || lower[i] >= '0' && lower[i] <= '9' || lower[i] >= 0x80)
			if alnum && start < 0 {
				start = i
			}
			if !alnum && start >= 0 {
				if i-start >= 3 {
					seen[string(lower[start:i])] = true
				}
				start = -1
			}
		}
	}
	return sortedKeys(seen)
}

// timedSetups runs setup at least setupReps times and for at least
// setupMin, records setup_s as the median, and returns the last
// set-up's product; earlier ones are released with close first.
func timedSetups[T any](r *result, setup func() (T, error), close func(T) error) (T, error) {
	var out T
	var times []float64
	var spent time.Duration
	for i := 0; i < setupReps || spent < setupMin; i++ {
		if i > 0 {
			if err := close(out); err != nil {
				return out, err
			}
			var none T
			out = none
		}
		debug.FreeOSMemory()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, err
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
		out = v
	}
	r.timing("setup_s", "s", times)
	return out, nil
}

// expected holds, per compared ASN, its /v1/as body in snapshots A and
// B (nil without B).
type expected map[asnum.ASN][2][]byte

// keepBodies renders the bodies of the ASNs a run will compare and
// drops the snapshots, so that during traffic the generator's heap, and
// with it the garbage collector's interference, stays small.
func (s *served) keepBodies(asns []asnum.ASN) expected {
	exp := make(expected, len(asns))
	for _, a := range asns {
		var b [2][]byte
		b[0], _ = s.snapA.AppendASBody(nil, a)
		if s.snapB != nil {
			b[1], _ = s.snapB.AppendASBody(nil, a)
		}
		exp[a] = b
	}
	s.snapA, s.snapB = nil, nil
	debug.FreeOSMemory()
	return exp
}

// match reports which snapshots render a's body as body: bit 0 for A,
// bit 1 for B.
func (x expected) match(a asnum.ASN, body []byte) int {
	m := 0
	for i, want := range x[a] {
		if want != nil && bytes.Equal(body, want) {
			m |= 1 << i
		}
	}
	return m
}

// sampledASNs lists the ASNs of ops whose bodies are compared.
func sampledASNs(ops []op) []asnum.ASN {
	var out []asnum.ASN
	for _, o := range ops {
		if o.sample {
			out = append(out, o.asn)
		}
	}
	return out
}

// pointOp performs GET /v1/as on client and, for sampled ops, compares
// the body with Snapshot.AppendASBody's.
func pointOp(ctx context.Context, client *http.Client, base string, o *op, exp expected) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+asPath(o.asn), nil)
	if err != nil {
		return outcome{err: err}
	}
	resp, err := client.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return outcome{err: fmt.Errorf("GET /v1/as/%d: status %d", o.asn, resp.StatusCode)}
	}
	if !o.sample {
		_, err = io.Copy(io.Discard, resp.Body)
		return outcome{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	if err == nil && exp.match(o.asn, body) == 0 {
		err = fmt.Errorf("GET /v1/as/%d: body differs from Snapshot.AppendASBody", o.asn)
	}
	return outcome{err: err}
}

// stepStats summarises one open-loop step of point lookups.
type stepStats struct {
	p50, p90 float64 // µs, over the whole step
	p99      float64 // µs, windowP99's
	fails    int
	lagP99   float64 // µs
	grows    bool
	samples  int
}

func analyzeStep(ops []op, rep genReport, rate float64) stepStats {
	lat := make([]float64, len(ops))
	due := make([]time.Duration, len(ops))
	st := stepStats{samples: len(ops)}
	for i, o := range rep.results {
		lat[i] = float64(o.done-ops[i].due) / 1e3
		due[i] = ops[i].due
		if o.err != nil {
			st.fails++
		}
	}
	st.lagP99, _ = windowP99(due, rep.lag, rate)
	st.p50 = median(lat)
	st.p90 = percentile(sortedCopy(lat), 90)
	st.p99, _ = windowP99(due, lat, rate)
	// 5 ms worth of arrivals: queueing that never drains, not a burst.
	st.grows = rep.backlogGrows(rate * 0.005)
	return st
}

// pointSLO is the latency limit a ladder step must meet: p99 at most
// 3 ms with no failures and no growing backlog.
const pointSLO = 3000.0 // µs

// coldStarts is how many times serve-point starts borgesd; the last
// one serves the ladder.
const coldStarts = 9

// ladderRates are serve-point's steps. The point metrics come from the
// metricRate step, and the ladder always climbs that far.
var ladderRates = []float64{2000, 4000, 8000, 16000}

const metricRate = 4000.0

// stepTries is how often a ladder step up to metricRate runs while a
// late generator voids it.
const stepTries = 3

// ladder is serve-point's schedule of Zipf-popular GET /v1/as: a
// warm-up at the first rate, then one step per rate.
type ladder struct {
	warm  []op
	steps [][]op // steps[k] runs at ladderRates[k]
}

func planLadder(rng *rand.Rand, asns []asnum.ASN, warm, step time.Duration) ladder {
	picker := newZipfPicker(rng, 1.1, asns)
	at := func(rate float64, dur time.Duration) []op {
		var ops []op
		for i, due := range poissonDue(rng, rate, 0, dur) {
			ops = append(ops, op{due: due, kind: opPoint, asn: picker.next(), sample: i%100 == 0})
		}
		return ops
	}
	l := ladder{warm: at(ladderRates[0], warm)}
	for _, rate := range ladderRates {
		l.steps = append(l.steps, at(rate, step))
	}
	return l
}

func (l ladder) sampled() []asnum.ASN {
	out := sampledASNs(l.warm)
	for _, ops := range l.steps {
		out = append(out, sampledASNs(ops)...)
	}
	return out
}

// startCold starts borgesd n times with args and records cold_start_ms
// (exec → first 200 on probe). It returns the last daemon, running.
func startCold(e *env, r *result, n int, probe string, args ...string) (*daemon, error) {
	var colds []float64
	for i := 0; ; i++ {
		d, err := startDaemon(e.borgesd, args...)
		if err != nil {
			return nil, err
		}
		cs, err := d.waitReady(probe, 60*time.Second)
		r.Attempted++
		if err != nil {
			return nil, err
		}
		colds = append(colds, float64(cs)/1e6)
		if i == n-1 {
			r.timing("cold_start_ms", "ms", colds)
			return d, nil
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
}

// runServePoint is serve-point: cold starts, then an open-loop ladder
// of Zipf-popular GET /v1/as on two keep-alive connections.
func runServePoint(ctx context.Context, e *env, r *result) error {
	s, err := timedSetups(r, func() (*served, error) { return setupServe(ctx, e, false) },
		func(*served) error { return nil })
	if err != nil {
		return err
	}
	d, err := startCold(e, r, coldStarts, asPath(s.asns[0]), "-snapshot-in", s.artA, "-q", "-rate", "0")
	if err != nil {
		return err
	}
	defer d.stop()
	warm := min(2*time.Second, e.seconds/10)
	l := planLadder(rand.New(rand.NewSource(e.seed)), s.asns, warm, max(time.Second, (e.seconds-warm)/4))
	peak, err := runLadder(ctx, e, r, d, l, s.keepBodies(l.sampled()))
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", "MiB", "lower", peak)
	return d.stop()
}

// runLadder climbs l on d over two keep-alive connections and records
// the point metrics of the metricRate step and point_max_rps. It stops
// at the first step past metricRate that misses the latency limit,
// checks that the daemon never reloaded, and returns the daemon's peak
// RSS (MiB) as read after the metricRate step, so that the reading does
// not depend on how far the ladder climbs.
func runLadder(ctx context.Context, e *env, r *result, d *daemon, l ladder, exp expected) (float64, error) {
	clients := []*http.Client{laneClient(), laneClient()}
	do := func(ctx context.Context, c int, o *op) outcome { return pointOp(ctx, clients[c], d.base, o, exp) }
	count := func(ops []op, rep genReport) {
		r.Attempted += int64(len(ops))
		for _, o := range rep.results {
			if o.err != nil {
				r.fail("%v", o.err)
			}
		}
	}

	count(l.warm, runOpenLoop(ctx, l.warm, []int{0, 0}, do))
	var peak float64
	maxRPS := 0.0
	for k, rate := range ladderRates {
		ops := l.steps[k]
		var st stepStats
		// A late generator voids a step. Up to the metric step, the step
		// runs again on the same schedule while tries remain: a step
		// holds no state, and a shared machine stalls now and then.
		for try := 1; ; try++ {
			rep := runOpenLoop(ctx, ops, []int{0, 0}, do)
			count(ops, rep)
			st = analyzeStep(ops, rep, rate)
			e.logf("%5.0f/s: p50 %.0f µs, p90 %.0f µs, p99 %.0f µs, %d failed, generator lag p99 %.0f µs, backlog grows %v",
				rate, st.p50, st.p90, st.p99, st.fails, st.lagP99, st.grows)
			if st.lagP99 <= maxLagUS || rate > metricRate || e.trace || try == stepTries {
				break
			}
			e.logf("generator late: running the %.0f/s step again", rate)
		}
		if rate == metricRate {
			r.Metrics["point_p50_us"] = metricValue{Value: st.p50, Unit: "us", Better: "lower", N: st.samples}
			r.set("point_p99_us", "us", "lower", st.p99)
			var err error
			if peak, err = d.peakRSSMiB(); err != nil {
				return 0, err
			}
		}
		// Generator and server share two cores: past saturation the
		// generator runs late too, and that step only ends the ladder.
		// Up to the step the point metrics come from, the generator's
		// lateness is reported with them.
		late := st.lagP99 > maxLagUS
		if rate <= metricRate {
			e.noteLag(r, st.lagP99, fmt.Sprintf("at %.0f/s", rate))
		} else if late {
			break
		}
		if !late && st.p99 <= pointSLO && st.fails == 0 && !st.grows {
			maxRPS = rate
		} else if rate >= metricRate {
			break
		}
	}
	r.set("point_max_rps", "req/s", "higher", maxRPS)

	m, err := scrape(clients[0], d.base, "borgesd_reloads_total")
	r.check(err)
	if m["borgesd_reloads_total"] != 0 {
		r.fail("serve-point reloaded %v times", m["borgesd_reloads_total"])
	}
	return peak, nil
}

// mixedDaemon is serve-mixed's set-up: the served inputs and a ready
// borgesd over them.
type mixedDaemon struct {
	s *served
	d *daemon
}

// runServeMixed is serve-mixed: point lookups and searches on one
// connection; bulk streams and reloads (delta A→B, delta B→A, full A)
// on the other.
func runServeMixed(ctx context.Context, e *env, r *result) error {
	md, err := timedSetups(r, func() (mixedDaemon, error) {
		s, err := setupServe(ctx, e, true)
		if err != nil {
			return mixedDaemon{}, err
		}
		d, err := startDaemon(e.borgesd, "-snapshot-in", s.artA, "-delta-in", s.live, "-q", "-rate", "0")
		if err != nil {
			return mixedDaemon{}, err
		}
		_, err = d.waitReady(asPath(s.asns[0]), 60*time.Second)
		return mixedDaemon{s, d}, err
	}, func(m mixedDaemon) error { return m.d.stop() })
	if err != nil {
		if md.d != nil {
			_ = md.d.stop()
		}
		return err
	}
	s, d := md.s, md.d
	defer d.stop()
	m := planMixed(rand.New(rand.NewSource(e.seed)), s, e.seconds)
	peak, err := runMixed(ctx, e, r, d, s, m, s.keepBodies(m.sampled()))
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", "MiB", "lower", peak)
	return d.stop()
}

// mixed is serve-mixed's schedule over dur: uniform point lookups and
// searches on connection 1; bulk streams and reloads on connection 2.
type mixed struct {
	ops   []op
	bulks []bulkStream
	dur   time.Duration
}

func planMixed(rng *rand.Rand, s *served, dur time.Duration) mixed {
	m := mixed{dur: dur}
	for i, due := range poissonDue(rng, 1000, 0, dur) {
		m.ops = append(m.ops, op{due: due, kind: opPoint, asn: s.asns[rng.Intn(len(s.asns))], sample: i%100 == 0})
	}
	for _, due := range poissonDue(rng, 20, 0, dur) {
		m.ops = append(m.ops, op{due: due, kind: opSearch, arg: rng.Intn(len(s.tokens))})
	}
	// A bulk stream every second and a reload every two; runs shorter
	// than 8 s reload more often, to keep four reloads.
	bulkEvery := time.Second
	reloadEvery := min(2*time.Second, dur/4)
	for k, due := range periodicDue(bulkEvery/2, bulkEvery, dur) {
		m.ops = append(m.ops, op{due: due, kind: opBulk, lane: 1, arg: k})
		m.bulks = append(m.bulks, newBulkStream(rng, s.asns))
	}
	for k, due := range periodicDue(reloadEvery/2, reloadEvery, dur) {
		m.ops = append(m.ops, op{due: due, kind: opReload, lane: 1, arg: k})
	}
	sortOps(m.ops)
	return m
}

func (m mixed) sampled() []asnum.ASN {
	out := sampledASNs(m.ops)
	for _, b := range m.bulks {
		out = append(out, b.sampled...)
	}
	return out
}

// runMixed runs m against d and records serve-mixed's metrics. It
// returns the daemon's peak RSS (MiB) over one reload cycle (A→B, B→A,
// full A), the median over the run's complete cycles: the daemon's
// high-water mark is reset as a cycle starts and read as the next one
// starts.
func runMixed(ctx context.Context, e *env, r *result, d *daemon, s *served, m mixed, exp expected) (float64, error) {
	clients := []*http.Client{laneClient(), laneClient()}
	// Reloads all run on connection 2, so only its goroutine touches
	// these until runOpenLoop returns.
	var cyclePeaks []float64
	var peakErr error
	do := func(ctx context.Context, c int, o *op) outcome {
		switch o.kind {
		case opPoint:
			return pointOp(ctx, clients[c], d.base, o, exp)
		case opSearch:
			return searchOp(ctx, clients[c], d.base, s.tokens[o.arg])
		case opBulk:
			return bulkOp(ctx, clients[c], d.base, m.bulks[o.arg], exp)
		default:
			if o.arg%len(reloadModes) == 0 {
				if o.arg > 0 {
					p, err := d.peakRSSMiB()
					cyclePeaks = append(cyclePeaks, p)
					peakErr = errors.Join(peakErr, err)
				}
				peakErr = errors.Join(peakErr, d.resetPeak())
			}
			return reloadOp(ctx, clients[c], d.base, o.arg, s)
		}
	}
	rep := runOpenLoop(ctx, m.ops, []int{0, 1}, do)
	r.Attempted += int64(len(m.ops))

	var pointLat, searchLat, bulkRate, deltaMS, fullMS []float64
	var pointDue []time.Duration
	var reloads [][2]time.Duration
	for i, o := range rep.results {
		if o.err != nil {
			r.fail("%v", o.err)
		}
		lat := float64(o.done-m.ops[i].due) / 1e3
		switch m.ops[i].kind {
		case opPoint:
			pointLat = append(pointLat, lat)
			pointDue = append(pointDue, m.ops[i].due)
		case opSearch:
			searchLat = append(searchLat, lat)
		case opBulk:
			bulkRate = append(bulkRate, float64(o.lines)/o.wall.Seconds())
		case opReload:
			ms := float64(o.wall) / 1e6
			if reloadModes[m.ops[i].arg%len(reloadModes)].mode == "delta" {
				deltaMS = append(deltaMS, ms)
			} else {
				fullMS = append(fullMS, ms)
			}
			reloads = append(reloads, [2]time.Duration{o.sent, o.done})
		}
	}
	// A reload keeps both cores busy; the generator shares them, so its
	// lateness is judged on requests due outside reloads. Those due
	// during one still count in every latency, timed from when due.
	var calmDue []time.Duration
	var calmLag []float64
	for i := range m.ops {
		if !inAny(m.ops[i].due, reloads) {
			calmDue = append(calmDue, m.ops[i].due)
			calmLag = append(calmLag, rep.lag[i])
		}
	}
	lag, _ := windowP99(calmDue, calmLag, float64(len(calmDue))/m.dur.Seconds())
	e.logf("generator lag p99 %.0f µs outside reloads; %d-line deltas", lag, s.deltaLen)
	// Unlike a ladder step, a late run does not run again: a second
	// pass, on a fresh borgesd so that it starts from A with the same
	// memory, would add a third of the time a run may take.
	e.noteLag(r, lag, "outside reloads")
	p99, ok := windowP99(pointDue, pointLat, 1000)
	if !ok {
		return 0, fmt.Errorf("no point lookups")
	}
	r.Metrics["point_p50_us"] = metricValue{Value: median(pointLat), Unit: "us", Better: "lower", N: len(pointLat)}
	r.set("point_p99_us", "us", "lower", p99)
	r.Metrics["search_p99_us"] = p99Metric(searchLat)
	r.Metrics["bulk_lines_per_s"] = metricValue{Value: median(bulkRate), Unit: "lines/s", Better: "higher", N: len(bulkRate)}
	r.timing("reload_delta_ms", "ms", deltaMS)
	r.timing("reload_full_ms", "ms", fullMS)
	var during []float64
	for i, due := range pointDue {
		if inAny(due, reloads) {
			during = append(during, pointLat[i])
		}
	}
	r.Metrics["reload_point_p99_us"] = p99Metric(during)

	if peakErr != nil {
		// Without a resettable high-water mark, the run's own peak.
		e.logf("per-cycle peak RSS unavailable (%v): peak_rss_mb is the run's", peakErr)
		cyclePeaks = nil
	}
	if len(reloads)%len(reloadModes) == 0 || len(cyclePeaks) == 0 {
		p, err := d.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		cyclePeaks = append(cyclePeaks, p)
	}
	e.logf("peak RSS per reload cycle: %.1f MiB", cyclePeaks)
	return median(cyclePeaks), nil
}

// p99Metric is the nearest-rank p99 of latencies in µs with their
// count; an empty sample reads 0 with n = 0.
func p99Metric(lat []float64) metricValue {
	m := metricValue{Unit: "us", Better: "lower", N: len(lat)}
	if len(lat) > 0 {
		m.Value = percentile(sortedCopy(lat), 99)
	}
	return m
}

// inAny reports whether t falls in one of the [from, to) intervals.
func inAny(t time.Duration, ivs [][2]time.Duration) bool {
	for _, iv := range ivs {
		if t >= iv[0] && t < iv[1] {
			return true
		}
	}
	return false
}

// bulkLines is the size of one serve-mixed bulk stream.
const bulkLines = 16384

// reloadModes is serve-mixed's reload cycle; the serving snapshot goes
// A → B → A → A, so every step's expected hash is known.
var reloadModes = []struct {
	mode  string
	delta func(*served) []byte // written to -delta-in first
	want  func(*served) string
}{
	{"delta", func(s *served) []byte { return s.deltaAB }, func(s *served) string { return s.hashB }},
	{"delta", func(s *served) []byte { return s.deltaBA }, func(s *served) string { return s.hashA }},
	{"full", nil, func(s *served) string { return s.hashA }},
}

// reloadOp performs step k of the reload cycle and checks the content
// hash in the reload response and in /v1/stats.
func reloadOp(ctx context.Context, client *http.Client, base string, k int, s *served) outcome {
	m := reloadModes[k%len(reloadModes)]
	if m.delta != nil {
		if err := writeAtomic(s.live, m.delta(s)); err != nil {
			return outcome{err: err}
		}
	}
	want := m.want(s)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/admin/reload?mode="+m.mode, nil)
	if err != nil {
		return outcome{err: err}
	}
	var got struct {
		ContentHash string `json:"content_hash"`
	}
	if err := doJSON(client, req, &got); err != nil {
		return outcome{err: fmt.Errorf("reload %s: %w", m.mode, err)}
	}
	wall := time.Since(start)
	if got.ContentHash != want {
		return outcome{wall: wall, err: fmt.Errorf("reload %s: content hash %.12s, want %.12s", m.mode, got.ContentHash, want)}
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err == nil {
		err = doJSON(client, req, &got)
	}
	if err == nil && got.ContentHash != want {
		err = fmt.Errorf("/v1/stats after reload %s: content hash %.12s, want %.12s", m.mode, got.ContentHash, want)
	}
	return outcome{wall: wall, err: err}
}

func doJSON(client *http.Client, req *http.Request, v any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// searchOp searches for a token taken from the mapping's names, so at
// least one organization must match.
func searchOp(ctx context.Context, client *http.Client, base, token string) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/search?name="+url.QueryEscape(token), nil)
	if err != nil {
		return outcome{err: err}
	}
	var got struct {
		Matches []json.RawMessage `json:"matches"`
	}
	if err := doJSON(client, req, &got); err != nil {
		return outcome{err: fmt.Errorf("search %q: %w", token, err)}
	}
	if len(got.Matches) == 0 {
		return outcome{err: fmt.Errorf("search %q: no matches for a token of the mapping", token)}
	}
	return outcome{}
}

// bulkSampleEvery is how often a bulk output line is compared byte for
// byte with the pre-rendered body.
const bulkSampleEvery = 256

// bulkStream is one /v1/bulk request body and the ASNs of its
// compared lines (lines 0, bulkSampleEvery, 2·bulkSampleEvery, …).
type bulkStream struct {
	body    []byte
	sampled []asnum.ASN
}

func newBulkStream(rng *rand.Rand, asns []asnum.ASN) bulkStream {
	var b bulkStream
	for i := 0; i < bulkLines; i++ {
		a := asns[rng.Intn(len(asns))]
		if i%bulkSampleEvery == 0 {
			b.sampled = append(b.sampled, a)
		}
		b.body = strconv.AppendUint(b.body, uint64(a), 10)
		b.body = append(b.body, '\n')
	}
	return b
}

// bulkOp streams one bulk request and checks that every input line has
// an output line and that the compared lines all equal one snapshot's
// Snapshot.AppendASBody (a stream is answered from one pinned
// snapshot).
func bulkOp(ctx context.Context, client *http.Client, base string, b bulkStream, exp expected) outcome {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/bulk", bytes.NewReader(b.body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return outcome{err: fmt.Errorf("bulk: status %d", resp.StatusCode)}
	}
	lines, snaps := 0, 3 // bit 0: consistent with A, bit 1: with B
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if lines%bulkSampleEvery == 0 && lines/bulkSampleEvery < len(b.sampled) {
			line := append(append([]byte(nil), sc.Bytes()...), '\n')
			snaps &= exp.match(b.sampled[lines/bulkSampleEvery], line)
		}
		lines++
	}
	wall := time.Since(start)
	if err := sc.Err(); err != nil {
		return outcome{err: fmt.Errorf("bulk: %w", err)}
	}
	switch {
	case lines != bulkLines:
		err = fmt.Errorf("bulk: %d output lines for %d input lines", lines, bulkLines)
	case snaps == 0:
		err = fmt.Errorf("bulk: compared lines match neither snapshot's Snapshot.AppendASBody")
	}
	return outcome{wall: wall, lines: lines, err: err}
}
