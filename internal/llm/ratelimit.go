package llm

import (
	"context"
	"sync"
	"time"
)

// RateLimited decorates a Provider with a token-bucket request limiter.
// Live APIs enforce per-minute quotas; a 30k-record extraction batch
// must pace itself below them instead of burning its error budget on
// 429 responses (which the retry layer would otherwise back off from
// one at a time).
type RateLimited struct {
	// Inner is the wrapped provider.
	Inner Provider
	// RPS is the sustained requests-per-second budget (required > 0).
	RPS float64
	// Burst is the bucket capacity (default 1).
	Burst int
	// now/sleep are indirected for tests.
	Now   func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// Complete implements Provider, waiting for a token before delegating.
func (r *RateLimited) Complete(ctx context.Context, req Request) (Response, error) {
	if err := r.wait(ctx); err != nil {
		return Response{}, err
	}
	return r.Inner.Complete(ctx, req)
}

func (r *RateLimited) wait(ctx context.Context) error {
	now := r.Now
	if now == nil {
		now = time.Now
	}
	sleep := r.Sleep
	if sleep == nil {
		sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	for {
		r.mu.Lock()
		burst := float64(r.Burst)
		if burst < 1 {
			burst = 1
		}
		t := now()
		if r.last.IsZero() {
			r.tokens = burst
		} else {
			r.tokens += t.Sub(r.last).Seconds() * r.RPS
			if r.tokens > burst {
				r.tokens = burst
			}
		}
		r.last = t
		if r.tokens >= 1 {
			r.tokens--
			r.mu.Unlock()
			return nil
		}
		need := (1 - r.tokens) / r.RPS
		r.mu.Unlock()
		if err := sleep(ctx, time.Duration(need*float64(time.Second))); err != nil {
			return err
		}
	}
}
