package llm

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/resilience"
)

func TestRetryingHonoursRetryAfterHint(t *testing.T) {
	var delays []time.Duration
	hinted := &resilience.RetryAfterError{
		Err:   fmt.Errorf("x: %w", ErrRateLimited),
		After: 5 * time.Second,
	}
	p := &scriptedProvider{failures: 1, err: hinted}
	r := retrying(p, 4, 10*time.Millisecond, func(ctx context.Context, d time.Duration) error {
		delays = append(delays, d)
		return nil
	})
	if _, err := r.Complete(context.Background(), Request{}); err != nil {
		t.Fatal(err)
	}
	if len(delays) != 1 || delays[0] != 5*time.Second {
		t.Errorf("delays = %v, want [5s] (server hint beats exponential backoff)", delays)
	}
}

func TestResilientRetriesAndBreaksPerModel(t *testing.T) {
	now := time.Unix(0, 0)
	flaky := &scriptedProvider{failures: 1, err: fmt.Errorf("x: %w", ErrServer)}
	r := &Resilient{
		Inner: flaky,
		Exec: &resilience.Executor{
			Policy:   &resilience.Policy{MaxAttempts: 3, Jitter: -1, Retryable: Retryable, SleepFn: func(context.Context, time.Duration) error { return nil }},
			Breakers: &resilience.BreakerSet{Threshold: 2, Cooldown: time.Minute, Now: func() time.Time { return now }},
		},
	}
	resp, err := r.Complete(context.Background(), Request{Model: "m1"})
	if err != nil || resp.Content != "ok" {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	if flaky.calls != 2 {
		t.Errorf("calls = %d, want 2 (one retry)", flaky.calls)
	}

	// A persistently failing model trips its breaker; other models are
	// unaffected.
	dead := &scriptedProvider{failures: 99, err: fmt.Errorf("x: %w", ErrServer)}
	r.Inner = dead
	if _, err := r.Complete(context.Background(), Request{Model: "m2"}); err == nil {
		t.Fatal("want exhaustion")
	}
	if _, err := r.Complete(context.Background(), Request{Model: "m2"}); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("err = %v, want breaker denial for m2", err)
	}
	healthy := &scriptedProvider{}
	r.Inner = healthy
	if _, err := r.Complete(context.Background(), Request{Model: "m3"}); err != nil {
		t.Fatalf("m3 = %v, want success despite m2's open circuit", err)
	}
}

func TestResilientNilExecPassesThrough(t *testing.T) {
	p := &scriptedProvider{}
	r := &Resilient{Inner: p}
	if _, err := r.Complete(context.Background(), Request{Model: "m"}); err != nil {
		t.Fatal(err)
	}
	if p.calls != 1 {
		t.Errorf("calls = %d, want 1", p.calls)
	}
}
