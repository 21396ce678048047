package openai

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/llm"
	"github.com/nu-aqualab/borges/internal/resilience"
)

// retrying wraps p in the LLM path's one retry layer, llm.Resilient,
// with four attempts and the given sleep.
func retrying(p llm.Provider, sleep func(context.Context, time.Duration) error) llm.Provider {
	return &llm.Resilient{Inner: p, Exec: &resilience.Executor{Policy: &resilience.Policy{
		MaxAttempts: 4, Jitter: -1, Retryable: llm.Retryable, SleepFn: sleep,
	}}}
}

// TestRetryAfterBecomesTypedHint verifies that a 429 or 503 carrying a
// Retry-After header surfaces as a typed delay hint the retry layer can
// honour, in both delay-seconds and HTTP-date forms, and that the
// sentinel taxonomy is preserved underneath.
func TestRetryAfterBecomesTypedHint(t *testing.T) {
	status, header := 429, "7"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if header != "" {
			w.Header().Set("Retry-After", header)
		}
		w.WriteHeader(status)
		fmt.Fprint(w, "slow down")
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	req := llm.Request{Model: "m", Messages: []llm.Message{{Role: llm.RoleUser, Content: "x"}}}

	_, err := c.Complete(context.Background(), req)
	if !errors.Is(err, llm.ErrRateLimited) {
		t.Fatalf("429 err = %v, want ErrRateLimited", err)
	}
	if d, ok := resilience.RetryAfterOf(err); !ok || d != 7*time.Second {
		t.Errorf("hint = %v/%v, want 7s", d, ok)
	}

	status, header = 503, time.Now().Add(90*time.Second).UTC().Format(http.TimeFormat)
	_, err = c.Complete(context.Background(), req)
	if !errors.Is(err, llm.ErrServer) {
		t.Fatalf("503 err = %v, want ErrServer", err)
	}
	if d, ok := resilience.RetryAfterOf(err); !ok || d <= 0 || d > 90*time.Second {
		t.Errorf("hint = %v/%v, want ~90s from HTTP-date", d, ok)
	}

	// No header: plain sentinel error, no hint.
	status, header = 429, ""
	_, err = c.Complete(context.Background(), req)
	if !errors.Is(err, llm.ErrRateLimited) {
		t.Fatalf("bare 429 err = %v", err)
	}
	if _, ok := resilience.RetryAfterOf(err); ok {
		t.Error("bare 429 must not carry a hint")
	}
}

// TestRetryingWaitsExactlyTheHint drives Client under llm.Resilient end
// to end: the sleep requested between attempts equals the server's
// Retry-After.
func TestRetryingWaitsExactlyTheHint(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			w.Header().Set("Retry-After", "11")
			w.WriteHeader(429)
			return
		}
		fmt.Fprint(w, `{"model":"m","choices":[{"message":{"role":"assistant","content":"ok"}}]}`)
	}))
	defer srv.Close()
	var delays []time.Duration
	p := retrying(&Client{BaseURL: srv.URL}, func(ctx context.Context, d time.Duration) error {
		delays = append(delays, d)
		return nil
	})
	resp, err := p.Complete(context.Background(), llm.Request{
		Model: "m", Messages: []llm.Message{{Role: llm.RoleUser, Content: "x"}}})
	if err != nil || resp.Content != "ok" {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	if len(delays) != 1 || delays[0] != 11*time.Second {
		t.Errorf("delays = %v, want [11s]", delays)
	}
}
