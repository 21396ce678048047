package ner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/llm"
)

// gatedProvider holds every completion until release is closed, and
// counts the calls that reached it.
type gatedProvider struct {
	release chan struct{}
	calls   atomic.Int64
}

func (g *gatedProvider) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	g.calls.Add(1)
	<-g.release
	return llm.Response{Content: `{"siblings": [], "reason": ""}`}, nil
}

// numericRecords returns n records that all pass the input filter.
func numericRecords(n int) []Record {
	records := make([]Record, n)
	for i := range records {
		records[i] = Record{ASN: asnum.ASN(i + 1), Notes: fmt.Sprintf("peers with AS%d", i+2)}
	}
	return records
}

// TestExtractAllGoroutinesBounded: with every worker blocked in the
// model, a 1,000-record batch holds one goroutine per worker, not one
// per pending record.
func TestExtractAllGoroutinesBounded(t *testing.T) {
	const conc, n = 8, 1000
	p := &gatedProvider{release: make(chan struct{})}
	e := &Extractor{Provider: p, Concurrency: conc}
	base := runtime.NumGoroutine()
	done := make(chan []Extraction, 1)
	go func() { done <- e.ExtractAll(context.Background(), numericRecords(n)) }()
	waitUntil(t, func() bool { return p.calls.Load() == conc })
	// The ExtractAll caller plus one goroutine per worker; the rest is
	// slack for the runtime.
	if got, limit := runtime.NumGoroutine(), base+conc+4; got > limit {
		t.Errorf("goroutines with %d records pending = %d, want <= %d", n-conc, got, limit)
	}
	close(p.release)
	for i, r := range <-done {
		if r.Err != nil || r.Record.ASN != asnum.ASN(i+1) {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	if got := p.calls.Load(); got != n {
		t.Errorf("model calls = %d, want %d", got, n)
	}
}

// TestExtractAllCancelStopsModelCalls: cancelling while every worker
// is blocked in the model lets the in-flight calls finish, issues no
// further call, and marks every record no worker reached with
// context.Canceled.
func TestExtractAllCancelStopsModelCalls(t *testing.T) {
	const conc, n = 4, 200
	p := &gatedProvider{release: make(chan struct{})}
	e := &Extractor{Provider: p, Concurrency: conc}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan []Extraction, 1)
	go func() { done <- e.ExtractAll(ctx, numericRecords(n)) }()
	waitUntil(t, func() bool { return p.calls.Load() == conc })
	cancel()
	close(p.release)
	results := <-done
	if got := p.calls.Load(); got != conc {
		t.Errorf("model calls = %d, want %d: a record reached the model after cancellation", got, conc)
	}
	finished := 0
	for i, r := range results {
		if r.Record.ASN != asnum.ASN(i+1) {
			t.Fatalf("result %d out of order: %v", i, r.Record.ASN)
		}
		switch {
		case r.Err == nil:
			finished++
		case !errors.Is(r.Err, context.Canceled):
			t.Errorf("result %d err = %v, want context.Canceled", i, r.Err)
		}
	}
	if finished != conc {
		t.Errorf("finished records = %d, want the %d in flight at cancellation", finished, conc)
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
