package serve

import (
	"bufio"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestObserveAllocs: recording a served request allocates nothing.
func TestObserveAllocs(t *testing.T) {
	var es endpointStats
	if n := testing.AllocsPerRun(1000, func() { es.observe(http.StatusOK, time.Millisecond) }); n != 0 {
		t.Fatalf("observe allocates %v times per call, want 0", n)
	}
}

// TestLatencyBucketOracle holds the latency buckets to their rule: a
// latency lands in the first bucket whose bound it does not exceed,
// zero and negative latencies in the first, and anything past the last
// bound in the one above them all. The bounds start at 1 µs, step by
// 1.5 and 4/3 in turn, and reach past 60 s. Errors count beside the
// buckets.
func TestLatencyBucketOracle(t *testing.T) {
	if latencyBounds[0] != time.Microsecond || latencyBounds[len(latencyBounds)-1] < time.Minute {
		t.Fatalf("bounds run %v to %v, want 1µs to at least 1m", latencyBounds[0], latencyBounds[len(latencyBounds)-1])
	}
	for i := 1; i < len(latencyBounds); i++ {
		want := latencyBounds[i-1] * 3 / 2
		if i%2 == 0 {
			want = latencyBounds[i-1] * 4 / 3
		}
		if latencyBounds[i] != want {
			t.Fatalf("bound %d = %v, want %v", i, latencyBounds[i], want)
		}
	}
	type landing struct {
		d      time.Duration
		bucket int
	}
	cases := []landing{{0, 0}, {-time.Second, 0}, {1, 0}, {time.Duration(1<<63 - 1), latencyBuckets - 1}}
	for i, b := range latencyBounds {
		cases = append(cases, landing{b, i}, landing{b + 1, i + 1})
	}
	var es endpointStats
	var want [latencyBuckets]uint64
	var nanos int64
	for n, c := range cases {
		var one endpointStats
		one.observe(http.StatusOK, c.d)
		if counts := bucketCounts(&one); one.served() != 1 || counts[c.bucket] != 1 {
			t.Fatalf("%v landed in %v, want bucket %d", c.d, counts, c.bucket)
		}
		status := http.StatusOK
		if n%5 == 0 {
			status = http.StatusInternalServerError
		}
		es.observe(status, c.d)
		want[c.bucket]++
		nanos += int64(max(c.d, 0))
	}
	if got := bucketCounts(&es); got != want || es.served() != uint64(len(cases)) || es.nanos.Load() != nanos {
		t.Fatalf("buckets %v (served %d, %d ns), want %v (%d, %d ns)", got, es.served(), es.nanos.Load(), want, len(cases), nanos)
	}
	if es.errors.Load() != int64((len(cases)+4)/5) {
		t.Fatalf("errors %d, want %d", es.errors.Load(), (len(cases)+4)/5)
	}
}

func bucketCounts(es *endpointStats) (counts [latencyBuckets]uint64) {
	for i := range counts {
		counts[i] = es.buckets[i].Load()
	}
	return counts
}

// TestLatencyHistogramMerge: two servers' latency histograms add up to
// the histogram of one server that served both their requests. Each
// request's latency comes from a script through the clock hook.
func TestLatencyHistogramMerge(t *testing.T) {
	script := func(seed uint64) []time.Duration {
		rng := rand.New(rand.NewPCG(seed, 29))
		ds := make([]time.Duration, 300)
		for i := range ds {
			// Log-uniform from 100 ns to about 100 s, with exact bounds
			// mixed in.
			ds[i] = time.Duration(math.Pow(10, 2+9*rng.Float64()))
			if i%7 == 0 {
				ds[i] = latencyBounds[rng.IntN(len(latencyBounds))]
			}
		}
		return ds
	}
	targets := []string{"/v1/as/3356", "/v1/org/0", "/v1/search?name=lumen", "/v1/as/1"}
	serveScript := func(srv *Server, clock *scriptedClock, ds []time.Duration) {
		for i, d := range ds {
			clock.next = d
			do(t, srv, "GET", targets[i%len(targets)], nil)
		}
	}
	newServer := func() (*Server, *scriptedClock) {
		clock := &scriptedClock{at: time.Unix(1_700_000_000, 0)}
		return newTestServer(t, Options{now: clock.now}), clock
	}
	a, b := script(1), script(2)
	srvA, clockA := newServer()
	serveScript(srvA, clockA, a)
	srvB, clockB := newServer()
	serveScript(srvB, clockB, b)
	srvAB, clockAB := newServer()
	serveScript(srvAB, clockAB, a)
	serveScript(srvAB, clockAB, b)

	sum := latencySamples(t, srvA)
	for series, v := range latencySamples(t, srvB) {
		sum[series] += v
	}
	both := latencySamples(t, srvAB)
	if len(sum) != len(both) {
		t.Fatalf("%d series summed, %d from one server", len(sum), len(both))
	}
	for series, v := range both {
		if strings.Contains(series, "_sum{") {
			// Seconds, printed in shortest form: compare whole
			// nanoseconds.
			if math.Round(v*1e9) != math.Round(sum[series]*1e9) {
				t.Errorf("%s = %v, summed %v", series, v, sum[series])
			}
		} else if v != sum[series] {
			t.Errorf("%s = %v, summed %v", series, v, sum[series])
		}
	}
	for _, ep := range []string{"as", "org", "search"} {
		count := both[`borgesd_request_latency_seconds_count{endpoint="`+ep+`"}`]
		if inf := both[`borgesd_request_latency_seconds_bucket{endpoint="`+ep+`",le="+Inf"}`]; count == 0 || inf != count {
			t.Errorf("%s: +Inf bucket %v, count %v", ep, inf, count)
		}
	}
}

// scriptedClock is a Server clock that puts next between each pair of
// readings, so that every request through instrument takes next.
type scriptedClock struct {
	at    time.Time
	next  time.Duration
	reads int
}

func (c *scriptedClock) now() time.Time {
	c.reads++
	if c.reads%2 == 0 {
		c.at = c.at.Add(c.next)
	}
	return c.at
}

// latencySamples scrapes srv and returns its latency family's samples,
// by series.
func latencySamples(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	for _, line := range strings.Split(do(t, srv, "GET", "/metrics", nil).Body.String(), "\n") {
		series, value, ok := cutLast(line)
		if !ok || !strings.HasPrefix(series, "borgesd_request_latency_seconds_") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		samples[series] = v
	}
	return samples
}

// TestConcurrentLookupsAndScrapes scrapes /metrics while lookups run
// (run it with -race): each scrape's request count for /v1/as never
// falls, and once the lookups stop it equals the number they made.
func TestConcurrentLookupsAndScrapes(t *testing.T) {
	srv := newTestServer(t, Options{})
	asRequests := func() int64 {
		t.Helper()
		rec := do(t, srv, "GET", "/metrics", nil)
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), `borgesd_requests_total{endpoint="as"} `); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		return 0
	}
	var (
		lookups atomic.Int64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				do(t, srv, "GET", "/v1/as/3356", nil)
				lookups.Add(1)
			}
		}()
	}
	prev := int64(0)
	for i := 0; i < 50; i++ {
		n := asRequests()
		if n < prev {
			t.Fatalf("scrape %d: requests_total fell from %d to %d", i, prev, n)
		}
		prev = n
	}
	close(stop)
	wg.Wait()
	if n, want := asRequests(), lookups.Load(); n != want {
		t.Fatalf("requests_total = %d after %d lookups", n, want)
	}
}
