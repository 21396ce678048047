package llm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// countingProvider tracks calls and echoes the last user message.
type countingProvider struct {
	mu    sync.Mutex
	calls int
	fail  bool
}

func (p *countingProvider) Complete(ctx context.Context, req Request) (Response, error) {
	p.mu.Lock()
	p.calls++
	n := p.calls
	p.mu.Unlock()
	if p.fail {
		return Response{}, errors.New("backend down")
	}
	content := ""
	if len(req.Messages) > 0 {
		content = req.Messages[len(req.Messages)-1].Content
	}
	return Response{Content: fmt.Sprintf("reply %d to %s", n, content)}, nil
}

func reqWith(content string) Request {
	return Request{Model: "m", Messages: []Message{{Role: RoleUser, Content: content}}}
}

func TestRateLimitedPacing(t *testing.T) {
	p := &countingProvider{}
	var clock time.Time
	var slept time.Duration
	rl := &RateLimited{
		Inner: p, RPS: 2, Burst: 1,
		Now: func() time.Time { return clock },
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept += d
			clock = clock.Add(d)
			return nil
		},
	}
	clock = time.Unix(1000, 0)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := rl.Complete(ctx, reqWith("x")); err != nil {
			t.Fatal(err)
		}
	}
	// First call free (full bucket), the other four wait 0.5s each.
	if want := 2 * time.Second; slept < want-time.Millisecond || slept > want+time.Millisecond {
		t.Errorf("slept %v, want ≈%v", slept, want)
	}
	if p.calls != 5 {
		t.Errorf("calls = %d", p.calls)
	}
}

func TestRateLimitedBurst(t *testing.T) {
	p := &countingProvider{}
	var clock = time.Unix(0, 0)
	var slept time.Duration
	rl := &RateLimited{
		Inner: p, RPS: 1, Burst: 3,
		Now: func() time.Time { return clock },
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept += d
			clock = clock.Add(d)
			return nil
		},
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := rl.Complete(ctx, reqWith("x")); err != nil {
			t.Fatal(err)
		}
	}
	if slept != 0 {
		t.Errorf("burst calls slept %v", slept)
	}
	if _, err := rl.Complete(ctx, reqWith("x")); err != nil {
		t.Fatal(err)
	}
	if slept == 0 {
		t.Error("post-burst call should wait")
	}
}

func TestRateLimitedContextCancel(t *testing.T) {
	p := &countingProvider{}
	clock := time.Unix(0, 0)
	rl := &RateLimited{
		Inner: p, RPS: 0.001, Burst: 1,
		Now: func() time.Time { return clock },
		Sleep: func(ctx context.Context, d time.Duration) error {
			return context.Canceled
		},
	}
	ctx := context.Background()
	if _, err := rl.Complete(ctx, reqWith("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := rl.Complete(ctx, reqWith("x")); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want canceled", err)
	}
}
