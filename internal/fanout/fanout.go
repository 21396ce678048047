// Package fanout runs a batch of independent items on a fixed pool of
// worker goroutines. The build's crawl, NER and classifier stages each
// fan out over tens of thousands of items at paper scale; a pool holds
// one goroutine stack per worker however long the batch is, where one
// goroutine per item parked on a semaphore holds a stack per pending
// item.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Each calls fn(i) once for every i in [0, n) and returns when every
// call has returned. At most workers calls run at once (at least one
// worker runs). Workers claim indices in increasing order from a
// shared counter, so an item that is still pending holds no goroutine.
// fn must be safe for concurrent use; writing only to slot i of a
// result slice keeps results in input order.
func Each(n, workers int, fn func(i int)) {
	workers = max(1, min(workers, n))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
