package serve

import (
	"bufio"
	"math/rand/v2"
	"net/http"
	"slices"
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

// TestLatencyWindowOracle checks the latency window against the rule
// /metrics has always used: sort the last ≤latencyWindow served
// latencies and report sorted[int(q*(n-1))], with fewer samples than
// the window holds, exactly as many, and more. Errors and sheds do not
// enter the window.
func TestLatencyWindowOracle(t *testing.T) {
	for _, n := range []int{0, 1, 7, latencyWindow - 1, latencyWindow, latencyWindow + 1, 3*latencyWindow + 17} {
		var es endpointStats
		var served []time.Duration
		rng := rand.New(rand.NewPCG(uint64(n), 25))
		for i := 0; i < n; i++ {
			d := time.Duration(rng.Int64N(int64(time.Second)))
			status := http.StatusOK
			if i%5 == 0 {
				status = http.StatusInternalServerError
			}
			served = append(served, d)
			es.observe(status, d)
			es.sheds.Add(1)
		}
		last := slices.Clone(served[max(0, len(served)-latencyWindow):])
		slices.Sort(last)
		got := es.window(nil)
		if !slices.Equal(got, last) {
			t.Fatalf("n=%d: window holds %d latencies, want the last %d served", n, len(got), len(last))
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			want := time.Duration(0)
			if len(last) > 0 {
				want = last[int(q*float64(len(last)-1))]
			}
			if g := quantile(got, q); g != want {
				t.Fatalf("n=%d: quantile %v = %v, want %v", n, q, g, want)
			}
		}
		if es.served.Load() != uint64(n) || es.errors.Load() != int64((n+4)/5) {
			t.Fatalf("n=%d: served %d, errors %d", n, es.served.Load(), es.errors.Load())
		}
	}
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
