package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// tailPercentiles are the candidates for a timing's reported tail, from
// the highest down; the first one with at least minBeyond samples above
// its rank is reported.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 75}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail resting on fewer samples is noise.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p over n
// samples: the smallest rank r with r/n >= p/100.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// tail returns the highest of tailPercentiles that has at least
// minBeyond samples beyond its rank, and its value; ok is false when
// the sample is too small for any of them.
func tail(sorted []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if len(sorted)-rank(p, len(sorted)) >= minBeyond {
			return p, percentile(sorted, p), true
		}
	}
	return 0, 0, false
}

// median returns the median of values (the mean of the two middle
// values for an even count), without modifying values.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of values with the
// "exclusive" method of Python's statistics.quantiles(values, n=4), so
// the spreads this program reports match the ones computed from its
// result files.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	// A line-for-line port of CPython's exclusive branch, including its
	// clamping (which extrapolates for n = 2).
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// windowP99 groups samples into windows of their due time, each
// expected to hold 2,000 samples at rate, takes each window's
// nearest-rank p99 — at least ten samples beyond it in any window of
// 1,000 or more — and returns the median over windows. The median
// keeps one stall (a garbage collection, a hiccup of the virtual
// machine) from deciding the run's p99, while a stall in most windows
// still moves it. Windows with fewer than 1,000 samples are skipped; a
// run too short to fill one yields the p99 of all its samples. ok is
// false only without samples.
func windowP99(due []time.Duration, lat []float64, rate float64) (float64, bool) {
	if len(lat) == 0 {
		return 0, false
	}
	window := time.Duration(2000 / rate * float64(time.Second))
	byWindow := make(map[int64][]float64)
	for i, d := range due {
		w := int64(d / window)
		byWindow[w] = append(byWindow[w], lat[i])
	}
	var p99s []float64
	for _, xs := range byWindow {
		if len(xs) < 1000 {
			continue
		}
		sort.Float64s(xs)
		p99s = append(p99s, percentile(xs, 99))
	}
	if len(p99s) == 0 {
		return percentile(sortedCopy(lat), 99), true
	}
	return median(p99s), true
}
