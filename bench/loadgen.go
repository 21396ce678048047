package main

import (
	"context"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
)

// The open-loop generator. Requests follow a schedule fixed before the
// run from the seed (Poisson arrivals: independent clients), and each
// request's latency is timed from when it was due, not from when it was
// sent, so a server stall is charged to every request it delays rather
// than silently thinning the load (coordinated omission).
//
// The generator sleeps until the next request is due (or until its
// next backlog sample) and then hands every request already due to its
// connection's queue; it never spins.
// On a 2-core machine a spinning generator would take a core from the
// server it measures.

type opKind uint8

const (
	opPoint opKind = iota
	opSearch
	opBulk
	opReload
)

// op is one scheduled request.
type op struct {
	due    time.Duration // offset from the start of the run
	kind   opKind
	lane   int       // the queue it waits in (see runOpenLoop)
	asn    asnum.ASN // opPoint
	arg    int       // search token, bulk batch or reload step index
	sample bool      // compare the response body byte for byte
}

// outcome is what happened to one op.
type outcome struct {
	done  time.Duration // completion offset from the start of the run
	sent  time.Duration // offset when its connection started on it
	wall  time.Duration // bulk and reload: the request's own duration
	lines int           // bulk: output lines
	err   error         // nil: 2xx and, where checked, the expected output
}

// poissonDue returns arrival offsets in [from, to) for a Poisson process
// of the given rate: exponential gaps drawn from rng.
func poissonDue(rng *rand.Rand, rate float64, from, to time.Duration) []time.Duration {
	var out []time.Duration
	t := float64(from)
	for {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		if time.Duration(t) >= to {
			return out
		}
		out = append(out, time.Duration(t))
	}
}

// periodicDue returns offsets from, from+every, … below to.
func periodicDue(from, every, to time.Duration) []time.Duration {
	var out []time.Duration
	for t := from; t < to; t += every {
		out = append(out, t)
	}
	return out
}

// zipfPicker draws ASNs with Zipf-distributed popularity: rank k is
// chosen with probability ∝ 1/k^s, and ranks map to ASNs through a
// seeded permutation, so the popular set is not the numerically
// smallest ASNs.
type zipfPicker struct {
	z    *rand.Zipf
	asns []asnum.ASN
}

func newZipfPicker(rng *rand.Rand, s float64, asns []asnum.ASN) *zipfPicker {
	perm := append([]asnum.ASN(nil), asns...)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return &zipfPicker{z: rand.NewZipf(rng, s, 1, uint64(len(perm)-1)), asns: perm}
}

func (p *zipfPicker) next() asnum.ASN { return p.asns[p.z.Uint64()] }

// genReport is the generator's account of one run.
type genReport struct {
	results []outcome
	// lag holds, per op, how late the generator handed it to its
	// connection (µs).
	lag []float64
	// backlog samples, every 100 ms, how many dispatched ops had not
	// completed.
	backlog []int
}

// maxLagUS bounds the generator's own p99 lateness in µs, judged per
// window like latency (windowP99) so that one hiccup of the machine,
// which delays the server as much as the generator, does not void a
// measurement. A later generator would be measuring itself.
const maxLagUS = 1500.0

// noteLag records the generator's lag p99 (µs) of one measurement as
// loadgen.lag_p99_us, the highest of the run, and logs a measurement
// it voids. A late generator is the machine's, not a wrong answer of
// the program, so it does not fail the run: a ladder step runs again
// while tries remain (see runLadder), and the last try's latencies
// are reported beside the lag that voids them.
func (e *env) noteLag(r *result, lagUS float64, where string) {
	if m, ok := r.Metrics[lagMetric]; !ok || lagUS > m.Value {
		r.set(lagMetric, "us", "lower", lagUS)
	}
	if lagUS > maxLagUS {
		e.logf("invalid measurement: generator late: lag p99 %.0f µs %s", lagUS, where)
	}
}

const lagMetric = "loadgen.lag_p99_us"

// backlogGrows reports whether the outstanding-request count rose over
// the run by more than slack: the mean of its second half exceeds the
// mean of its first half. A server keeping up holds the backlog flat;
// one that cannot accumulates it linearly.
func (r genReport) backlogGrows(slack float64) bool {
	n := len(r.backlog)
	if n < 4 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return mean(r.backlog[n/2:])-mean(r.backlog[:n/2]) > slack
}

// runOpenLoop sends ops (sorted by due). An op's lane names a queue;
// conns[c] is the queue connection c serves, so two connections may
// share one queue (whichever is free takes the next op). do performs
// one op on connection c. It returns once every op has completed.
func runOpenLoop(ctx context.Context, ops []op, conns []int, do func(ctx context.Context, c int, o *op) outcome) genReport {
	rep := genReport{results: make([]outcome, len(ops)), lag: make([]float64, 0, len(ops))}
	start := time.Now()
	// Each queue can hold every op, so dispatch never blocks on a busy
	// connection: that wait shows up as latency, not as generator lag.
	queues := make([]chan int, slices.Max(conns)+1)
	for q := range queues {
		queues[q] = make(chan int, len(ops))
	}
	var completed atomic.Int64
	var wg sync.WaitGroup
	for c, q := range conns {
		wg.Add(1)
		go func(c int, q chan int) {
			defer wg.Done()
			for i := range q {
				sent := time.Since(start)
				o := do(ctx, c, &ops[i])
				o.sent, o.done = sent, time.Since(start)
				rep.results[i] = o
				completed.Add(1)
			}
		}(c, queues[q])
	}
	nextSample := time.Duration(0)
	for i := 0; i < len(ops); {
		now := time.Since(start)
		if now >= nextSample {
			rep.backlog = append(rep.backlog, i-int(completed.Load()))
			nextSample += 100 * time.Millisecond
		}
		if wait := ops[i].due - now; wait > 0 {
			sleep(min(wait, nextSample-now))
			continue
		}
		for ; i < len(ops) && ops[i].due <= now; i++ {
			rep.lag = append(rep.lag, float64(now-ops[i].due)/1e3)
			queues[ops[i].lane] <- i
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return rep
}

// sleep blocks the calling thread for d with nanosleep(2). The Go
// runtime's timers wake about a millisecond late on an idle process,
// which would make the generator itself the largest source of lag;
// nanosleep overshoots by tens of microseconds and still yields the
// CPU.
func sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep
}

// sortOps orders ops by due time; ties keep their relative order.
func sortOps(ops []op) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
}

// laneClient returns an HTTP client that holds exactly one keep-alive
// connection, so a lane is one connection.
func laneClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 30 * time.Second,
	}
}
