package llm

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/resilience"
)

// scriptedProvider fails a set number of times before succeeding.
type scriptedProvider struct {
	failures int
	err      error
	calls    int
}

func (p *scriptedProvider) Complete(ctx context.Context, req Request) (Response, error) {
	p.calls++
	if p.calls <= p.failures {
		return Response{}, p.err
	}
	return Response{Content: "ok"}, nil
}

func noSleep(ctx context.Context, d time.Duration) error { return nil }

// retrying wraps p in the LLM path's one retry layer as core.Run builds
// it: Resilient over an executor whose policy retries Retryable errors,
// here without jitter so the backoff sequence is exact.
func retrying(p Provider, attempts int, base time.Duration, sleep func(context.Context, time.Duration) error) *Resilient {
	return &Resilient{Inner: p, Exec: &resilience.Executor{Policy: &resilience.Policy{
		MaxAttempts: attempts, BaseDelay: base, Jitter: -1, Retryable: Retryable, SleepFn: sleep,
	}}}
}

func TestRetryingSucceedsAfterRateLimit(t *testing.T) {
	p := &scriptedProvider{failures: 2, err: fmt.Errorf("x: %w", ErrRateLimited)}
	resp, err := retrying(p, 4, 0, noSleep).Complete(context.Background(), Request{})
	if err != nil || resp.Content != "ok" {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	if p.calls != 3 {
		t.Errorf("calls = %d, want 3", p.calls)
	}
}

func TestRetryingGivesUp(t *testing.T) {
	p := &scriptedProvider{failures: 99, err: fmt.Errorf("x: %w", ErrServer)}
	_, err := retrying(p, 3, 0, noSleep).Complete(context.Background(), Request{})
	if err == nil || !errors.Is(err, ErrServer) {
		t.Fatalf("err = %v", err)
	}
	if p.calls != 3 {
		t.Errorf("calls = %d, want 3", p.calls)
	}
}

func TestRetryingNonRetryableFailsFast(t *testing.T) {
	p := &scriptedProvider{failures: 99, err: errors.New("bad api key")}
	if _, err := retrying(p, 4, 0, noSleep).Complete(context.Background(), Request{}); err == nil {
		t.Fatal("want error")
	}
	if p.calls != 1 {
		t.Errorf("calls = %d, want 1 (no retry on permanent errors)", p.calls)
	}
}

func TestRetryingHonoursContext(t *testing.T) {
	p := &scriptedProvider{failures: 99, err: fmt.Errorf("x: %w", ErrRateLimited)}
	ctx, cancel := context.WithCancel(context.Background())
	r := retrying(p, 4, 0, func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	})
	if _, err := r.Complete(ctx, Request{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestRetryingBackoffDoubles(t *testing.T) {
	var delays []time.Duration
	p := &scriptedProvider{failures: 3, err: fmt.Errorf("x: %w", ErrServer)}
	r := retrying(p, 4, 10*time.Millisecond, func(ctx context.Context, d time.Duration) error {
		delays = append(delays, d)
		return nil
	})
	if _, err := r.Complete(context.Background(), Request{}); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(delays) != len(want) {
		t.Fatalf("delays = %v", delays)
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Errorf("delay %d = %v, want %v", i, delays[i], want[i])
		}
	}
}

// TestRetryingDefaultSleep exercises the real context-aware timer path
// with microsecond delays.
func TestRetryingDefaultSleep(t *testing.T) {
	p := &scriptedProvider{failures: 1, err: fmt.Errorf("x: %w", ErrRateLimited)}
	resp, err := retrying(p, 4, time.Microsecond, nil).Complete(context.Background(), Request{})
	if err != nil || resp.Content != "ok" {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	// And cancellation during the real sleep.
	p2 := &scriptedProvider{failures: 99, err: fmt.Errorf("x: %w", ErrRateLimited)}
	ctx, cancel := context.WithCancel(context.Background())
	r2 := retrying(p2, 4, time.Hour, nil)
	done := make(chan error, 1)
	go func() {
		_, err := r2.Complete(ctx, Request{})
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// TestRateLimitedDefaultClock drives the real clock/sleep path with a
// high-RPS limiter so the test stays fast.
func TestRateLimitedDefaultClock(t *testing.T) {
	p := &scriptedProvider{}
	rl := &RateLimited{Inner: p, RPS: 10000, Burst: 2}
	for i := 0; i < 5; i++ {
		if _, err := rl.Complete(context.Background(), Request{}); err != nil {
			t.Fatal(err)
		}
	}
	if p.calls != 5 {
		t.Errorf("calls = %d", p.calls)
	}
}
