package main

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
)

func TestPoissonDueIsSeededSortedAndAtRate(t *testing.T) {
	const rate, dur = 4000.0, 10 * time.Second
	a := poissonDue(rand.New(rand.NewSource(7)), rate, time.Second, time.Second+dur)
	b := poissonDue(rand.New(rand.NewSource(7)), rate, time.Second, time.Second+dur)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonDue(rand.New(rand.NewSource(8)), rate, time.Second, time.Second+dur); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, d := range a {
		if d < time.Second || d >= time.Second+dur {
			t.Fatalf("due %v outside [1s, 11s)", d)
		}
		if i > 0 && d < a[i-1] {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
	// 40,000 expected arrivals; a Poisson count's σ is 200.
	if want := rate * dur.Seconds(); math.Abs(float64(len(a))-want) > 1000 {
		t.Fatalf("%d arrivals, want about %.0f", len(a), want)
	}
}

func TestPeriodicDue(t *testing.T) {
	got := periodicDue(500*time.Millisecond, time.Second, 3*time.Second)
	want := []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond, 2500 * time.Millisecond}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestZipfPickerDeterministicAndSkewed(t *testing.T) {
	asns := make([]asnum.ASN, 1000)
	for i := range asns {
		asns[i] = asnum.ASN(64512 + i)
	}
	draw := func(seed int64) []asnum.ASN {
		p := newZipfPicker(rand.New(rand.NewSource(seed)), 1.1, asns)
		out := make([]asnum.ASN, 5000)
		for i := range out {
			out[i] = p.next()
		}
		return out
	}
	a := draw(3)
	if !slices.Equal(a, draw(3)) {
		t.Fatal("same seed drew different ASNs")
	}
	if slices.Equal(a, draw(4)) {
		t.Fatal("different seeds drew the same ASNs")
	}
	counts := make(map[asnum.ASN]int)
	for _, x := range a {
		counts[x]++
	}
	// Rank 1 of a Zipf(1.1) over 1,000 values draws about a fifth of
	// all samples; a uniform draw would give it 0.1%.
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if top < len(a)/10 {
		t.Fatalf("most popular ASN drawn %d of %d times: not skewed", top, len(a))
	}
}

func TestNearestRankPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {0, 1}, {100, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		p     float64
		ok    bool
		value float64
	}{
		{10, 0, false, 0},     // even p75 leaves only 2 beyond
		{40, 75, true, 30},    // p75 rank 30 leaves 10; p90 would leave 4
		{100, 90, true, 90},   // p99 leaves 1
		{1000, 99, true, 990}, // p99 rank 990 leaves exactly 10
		{9999, 99, true, 9900},
		{200000, 99.99, true, 199980},
	} {
		p, v, ok := tail(seq(c.n))
		if ok != c.ok || p != c.p || v != c.value {
			t.Errorf("n=%d: tail = p%g %g %v, want p%g %g %v", c.n, p, v, ok, c.p, c.value, c.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(data, n=4) in CPython.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestWindowP99TakesMedianOverWindows(t *testing.T) {
	// Three half-second windows of 1,000 samples at 4,000/s: two quiet
	// (p99 = 1) and one with a stall (p99 = 100).
	var due []time.Duration
	var lat []float64
	for w := 0; w < 3; w++ {
		for i := 0; i < 1000; i++ {
			due = append(due, time.Duration(w)*500*time.Millisecond+time.Duration(i)*time.Microsecond)
			v := 1.0
			if w == 1 && i >= 900 {
				v = 100
			}
			lat = append(lat, v)
		}
	}
	got, ok := windowP99(due, lat, 4000)
	if !ok || got != 1 {
		t.Fatalf("windowP99 = %g, %v; want 1, true", got, ok)
	}
	if _, ok := windowP99(nil, nil, 4000); ok {
		t.Fatal("no samples must not yield a p99")
	}
}

func TestWindowP99OfRunShorterThanAWindow(t *testing.T) {
	// A 1 s run at 1,000/s: its one 2 s window may hold fewer than
	// 1,000 samples, and then the p99 is over all of them.
	due := poissonDue(rand.New(rand.NewSource(1)), 1000, 0, time.Second)
	lat := make([]float64, len(due))
	for i := range lat {
		lat[i] = float64(i%100 + 1)
	}
	for _, n := range []int{len(due), 500} {
		want := percentile(sortedCopy(lat[:n]), 99)
		if got, ok := windowP99(due[:n], lat[:n], 1000); !ok || got != want {
			t.Errorf("%d samples: windowP99 = %g, %v; want %g", n, got, ok, want)
		}
	}
}

func TestNoteLagKeepsHighestAndNeverFails(t *testing.T) {
	var log bytes.Buffer
	e := &env{config: config{log: &log}}
	r := newResult("serve-point")
	e.noteLag(r, maxLagUS, "at 2000/s")
	if log.Len() != 0 {
		t.Fatalf("lag at the limit logged %q", log.String())
	}
	e.noteLag(r, maxLagUS+1, "at 4000/s")
	e.noteLag(r, 200, "outside reloads")
	if got := r.Metrics[lagMetric]; got.Value != maxLagUS+1 || got.Unit != "us" {
		t.Fatalf("%s = %+v, want %g us", lagMetric, got, maxLagUS+1)
	}
	if !strings.Contains(log.String(), "generator late") || r.Failed != 0 {
		t.Fatalf("late generator: log %q, %d failed; want it logged, not failed", log.String(), r.Failed)
	}
}

func TestBacklogGrows(t *testing.T) {
	flat := genReport{backlog: []int{2, 3, 1, 2, 3, 2, 1, 2}}
	rising := genReport{backlog: []int{0, 10, 20, 30, 40, 50, 60, 70}}
	if flat.backlogGrows(5) {
		t.Error("flat backlog reported growing")
	}
	if !rising.backlogGrows(5) {
		t.Error("rising backlog not reported")
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 50, End: 60}, {Start: 95, End: 120}}
	if got := covered(0, 100, kids); got != 30+10+5 {
		t.Fatalf("covered = %d, want 45", got)
	}
	st := selfTimes(append([]span{{ID: 1, Name: "p", Start: 0, End: 100}},
		span{ID: 2, Parent: 1, Name: "c", Start: 10, End: 30}, span{ID: 3, Parent: 1, Name: "c", Start: 20, End: 40}))
	if p := st["p"]; p.Count != 1 || math.Abs(p.SelfS-70e-9) > 1e-15 {
		t.Fatalf("self time of p = %+v, want 70 ns", p)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--trace", "0", "--seed", "3", "-trace", "1", "-trace"})
	want := []string{"--workload", "x", "-trace=false", "--seed", "3", "-trace=true", "-trace"}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}
