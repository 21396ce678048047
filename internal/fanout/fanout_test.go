package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachCallsEveryIndexOnce: every index in [0, n) runs exactly once,
// for batches shorter than, equal to and longer than the pool, and for
// out-of-range worker counts.
func TestEachCallsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {4, 4}, {1000, 4}, {1000, 1}, {7, 0}, {7, -3}, {3, 100},
	} {
		counts := make([]atomic.Int32, tc.n)
		Each(tc.n, tc.workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, got)
			}
		}
	}
}

// TestEachBoundsConcurrency: no more than workers calls are ever in
// flight.
func TestEachBoundsConcurrency(t *testing.T) {
	const n, workers = 500, 6
	var inFlight, peak atomic.Int32
	Each(n, workers, func(int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runtime.Gosched()
		inFlight.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Errorf("peak in flight = %d, want <= %d", p, workers)
	}
}

// TestEachGoroutinesBounded: while every worker is blocked, a batch of
// 10,000 items holds one goroutine per worker, not one per item, and
// all of them are gone once Each returns.
func TestEachGoroutinesBounded(t *testing.T) {
	const n, workers = 10000, 8
	base := runtime.NumGoroutine()
	var started atomic.Int32
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Each(n, workers, func(int) {
			started.Add(1)
			<-release
		})
	}()
	waitUntil(t, func() bool { return started.Load() == workers })
	if got, limit := runtime.NumGoroutine(), base+1+workers; got > limit {
		t.Errorf("goroutines with %d items pending = %d, want <= %d", n, got, limit)
	}
	close(release)
	<-done
	if got := started.Load(); got != n {
		t.Errorf("calls = %d, want %d", got, n)
	}
	waitUntil(t, func() bool { return runtime.NumGoroutine() <= base })
}

// TestEachClaimsInOrder: claims come from one increasing counter, so a
// single worker runs the indices in input order.
func TestEachClaimsInOrder(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	Each(100, 1, func(i int) {
		mu.Lock()
		seen = append(seen, i)
		mu.Unlock()
	})
	for i, v := range seen {
		if v != i {
			t.Fatalf("call %d got index %d, want in-order claims", i, v)
		}
	}
}

// waitUntil yields until cond holds, failing the test after 10s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		runtime.Gosched()
	}
}
