package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"syscall"
	"testing"
	"time"
)

// noSleep is the test sleep: records requested delays, never waits.
func noSleep(delays *[]time.Duration) func(ctx context.Context, d time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestPolicyRetriesTransientUntilSuccess(t *testing.T) {
	var delays []time.Duration
	p := &Policy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, Jitter: -1, SleepFn: noSleep(&delays)}
	calls := 0
	err := p.Do(context.Background(), func(ctx context.Context) error {
		calls++
		if calls < 3 {
			return MarkTransient(errors.New("flap"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	if len(delays) != len(want) || delays[0] != want[0] || delays[1] != want[1] {
		t.Errorf("backoff delays = %v, want %v", delays, want)
	}
}

func TestPolicyExhaustsIntoTypedError(t *testing.T) {
	var delays []time.Duration
	p := &Policy{MaxAttempts: 3, Jitter: -1, SleepFn: noSleep(&delays)}
	base := MarkTransient(errors.New("still down"))
	err := p.Do(context.Background(), func(ctx context.Context) error { return base })
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want ExhaustedError", err)
	}
	if ex.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", ex.Attempts)
	}
	if !IsTransient(err) {
		t.Error("an exhausted retry chain must classify as transient")
	}
	if !errors.Is(err, base) {
		t.Error("ExhaustedError must wrap the final attempt's error")
	}
}

func TestPolicyDoesNotRetryDurableErrors(t *testing.T) {
	p := &Policy{MaxAttempts: 4, SleepFn: noSleep(new([]time.Duration))}
	calls := 0
	durable := errors.New("404 not found")
	err := p.Do(context.Background(), func(ctx context.Context) error {
		calls++
		return durable
	})
	if !errors.Is(err, durable) || calls != 1 {
		t.Errorf("err=%v calls=%d; durable errors must surface unretried", err, calls)
	}
}

func TestPolicyHonorsRetryAfterHint(t *testing.T) {
	var delays []time.Duration
	p := &Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, Jitter: -1, SleepFn: noSleep(&delays)}
	hinted := &RetryAfterError{Err: MarkTransient(errors.New("429")), After: 7 * time.Second}
	_ = p.Do(context.Background(), func(ctx context.Context) error { return hinted })
	if len(delays) != 1 || delays[0] != 7*time.Second {
		t.Errorf("delays = %v, want [7s] (server hint replaces exponential backoff)", delays)
	}
}

func TestPolicyCapsRetryAfterAtMaxDelay(t *testing.T) {
	var delays []time.Duration
	p := &Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Second, Jitter: -1, SleepFn: noSleep(&delays)}
	hinted := &RetryAfterError{Err: MarkTransient(errors.New("429")), After: time.Hour}
	_ = p.Do(context.Background(), func(ctx context.Context) error { return hinted })
	if len(delays) != 1 || delays[0] != time.Second {
		t.Errorf("delays = %v, want [1s] (hint capped at MaxDelay)", delays)
	}
}

func TestPolicyJitterIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var delays []time.Duration
		p := &Policy{MaxAttempts: 4, BaseDelay: time.Second, Seed: seed, SleepFn: noSleep(&delays)}
		_ = p.Do(context.Background(), func(ctx context.Context) error {
			return MarkTransient(errors.New("flap"))
		})
		return delays
	}
	a, b := run(42), run(42)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("expected 3 backoffs, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("seeded jitter diverged at %d: %v vs %v", i, a[i], b[i])
		}
		base := time.Second << i
		if a[i] > base || a[i] < time.Duration(float64(base)*0.8) {
			t.Errorf("delay %d = %v outside [0.8·%v, %v]", i, a[i], base, base)
		}
	}
}

func TestSharedBudgetBoundsRetriesAcrossCalls(t *testing.T) {
	budget := NewBudget(3)
	p := &Policy{MaxAttempts: 10, Budget: budget, Jitter: -1, SleepFn: noSleep(new([]time.Duration))}
	fail := func(ctx context.Context) error { return MarkTransient(errors.New("down")) }

	err1 := p.Do(context.Background(), fail)
	err2 := p.Do(context.Background(), fail)
	var ex *ExhaustedError
	if !errors.As(err1, &ex) {
		t.Fatalf("first call: %v, want ExhaustedError", err1)
	}
	if !ex.BudgetSpent {
		t.Error("first call should have spent the shared budget")
	}
	if !errors.As(err2, &ex) || ex.Attempts != 1 {
		t.Errorf("second call = %v; with the budget gone it gets exactly one attempt", err2)
	}
	if budget.Spent() != 3 {
		t.Errorf("budget.Spent() = %d, want 3", budget.Spent())
	}
}

func TestPolicyStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &Policy{MaxAttempts: 100, SleepFn: func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}}
	err := p.Do(ctx, func(ctx context.Context) error { return MarkTransient(errors.New("flap")) })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, 10*time.Second)
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker must admit")
		}
		b.Record(false)
	}
	if b.State() != StateClosed {
		t.Fatalf("state after 2 failures = %v, want closed", b.State())
	}
	b.Allow()
	b.Record(false) // third consecutive failure trips it
	if b.State() != StateOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker must deny before cooldown")
	}

	now = now.Add(11 * time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker must admit a probe")
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker must admit only one probe at a time")
	}
	b.Record(false) // probe failed: re-open
	if b.State() != StateOpen || b.Trips() != 2 {
		t.Fatalf("state=%v trips=%d, want open/2", b.State(), b.Trips())
	}

	now = now.Add(11 * time.Second)
	if !b.Allow() {
		t.Fatal("second probe must be admitted")
	}
	b.Record(true) // probe succeeded: close
	if b.State() != StateClosed {
		t.Fatalf("state = %v, want closed after successful probe", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker must admit")
	}
	b.Record(true)
}

func TestBreakerIgnoresNonCountedFailures(t *testing.T) {
	b := NewBreaker(2, time.Minute)
	for i := 0; i < 10; i++ {
		b.Allow()
		b.Record(true) // durable outcomes (404s) report ok
	}
	if b.State() != StateClosed {
		t.Errorf("state = %v, want closed", b.State())
	}
}

func TestExecutorDeniesFastAndCountsEverything(t *testing.T) {
	now := time.Unix(0, 0)
	e := &Executor{
		Policy:   &Policy{MaxAttempts: 2, Jitter: -1, SleepFn: noSleep(new([]time.Duration))},
		Breakers: &BreakerSet{Threshold: 2, Cooldown: time.Minute, Now: func() time.Time { return now }},
	}
	fail := func(ctx context.Context) error { return MarkTransient(errors.New("down")) }

	// Two exhausted calls = 4 transient failures on one key: trips at 2.
	_ = e.Do(context.Background(), "crawl:bad.example", fail)
	err := e.Do(context.Background(), "crawl:bad.example", fail)
	if !errors.Is(err, ErrOpen) {
		// The first call trips the breaker (2 failures); the second is denied.
		t.Fatalf("second call = %v, want breaker denial", err)
	}
	var denied *BreakerOpenError
	if !errors.As(err, &denied) || denied.Key != "crawl:bad.example" {
		t.Fatalf("err = %v, want BreakerOpenError for crawl:bad.example", err)
	}
	if !IsTransient(err) {
		t.Error("breaker denials classify as transient (quarantined, not cached)")
	}

	// Other keys are unaffected.
	if err := e.Do(context.Background(), "crawl:good.example", func(ctx context.Context) error { return nil }); err != nil {
		t.Fatalf("independent key: %v", err)
	}

	st := e.Stats()
	if st.Attempts != 3 { // 2 on bad (exhausted), 0 denied, 1 on good
		t.Errorf("Attempts = %d, want 3", st.Attempts)
	}
	if st.Retries != 1 {
		t.Errorf("Retries = %d, want 1", st.Retries)
	}
	if st.Denials != 1 {
		t.Errorf("Denials = %d, want 1", st.Denials)
	}
	if st.BreakerTrips != 1 {
		t.Errorf("BreakerTrips = %d, want 1", st.BreakerTrips)
	}
	if open := e.Breakers.Open(); len(open) != 1 || open[0] != "crawl:bad.example" {
		t.Errorf("Open() = %v, want [crawl:bad.example]", open)
	}
}

func TestExecutorHalfOpenProbeHeals(t *testing.T) {
	now := time.Unix(0, 0)
	e := &Executor{
		Policy:   &Policy{MaxAttempts: 1, SleepFn: noSleep(new([]time.Duration))},
		Breakers: &BreakerSet{Threshold: 1, Cooldown: time.Second, Now: func() time.Time { return now }},
	}
	_ = e.Do(context.Background(), "k", func(ctx context.Context) error {
		return MarkTransient(errors.New("down"))
	})
	if err := e.Do(context.Background(), "k", func(ctx context.Context) error { return nil }); !errors.Is(err, ErrOpen) {
		t.Fatalf("pre-cooldown call = %v, want denial", err)
	}
	now = now.Add(2 * time.Second)
	if err := e.Do(context.Background(), "k", func(ctx context.Context) error { return nil }); err != nil {
		t.Fatalf("probe = %v, want success", err)
	}
	if st := e.Breakers.Get("k").State(); st != StateClosed {
		t.Errorf("state after healed probe = %v, want closed", st)
	}
}

// TestBreakerSetKeepsOnlyFailedKeys: successes and durable failures
// leave no entry behind; the first counted failure creates one.
func TestBreakerSetKeepsOnlyFailedKeys(t *testing.T) {
	e := &Executor{Breakers: &BreakerSet{Threshold: 2}}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("crawl:h%d.example", i)
		if err := e.Do(context.Background(), key, func(ctx context.Context) error { return nil }); err != nil {
			t.Fatal(err)
		}
		durable := errors.New("404")
		if err := e.Do(context.Background(), key, func(ctx context.Context) error { return durable }); err != durable {
			t.Fatalf("err = %v, want the durable error", err)
		}
	}
	if n := len(e.Breakers.m); n != 0 {
		t.Fatalf("set holds %d entries after only successes and durable failures, want 0", n)
	}
	_ = e.Do(context.Background(), "crawl:bad.example", func(ctx context.Context) error {
		return MarkTransient(errors.New("down"))
	})
	if n := len(e.Breakers.m); n != 1 {
		t.Fatalf("set holds %d entries after one failing key, want 1", n)
	}
	if st := e.Breakers.Get("crawl:bad.example").State(); st != StateClosed {
		t.Errorf("state after one of two failures = %v, want closed", st)
	}
	if open := e.Breakers.Open(); len(open) != 0 {
		t.Errorf("Open() = %v, want none", open)
	}
}

func TestIsTransientTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"marked", MarkTransient(errors.New("x")), true},
		{"wrapped marked", fmt.Errorf("crawl: %w", MarkTransient(errors.New("x"))), true},
		{"status 429", &StatusError{Code: 429}, true},
		{"status 503", &StatusError{Code: 503}, true},
		{"breaker", &BreakerOpenError{Key: "k"}, true},
		{"exhausted", &ExhaustedError{Attempts: 2, Err: errors.New("x")}, true},
		{"conn reset", fmt.Errorf("read: %w", syscall.ECONNRESET), true},
		{"torn body", fmt.Errorf("read body: %w", io.ErrUnexpectedEOF), true},
		{"plain", errors.New("no such host"), false},
		{"refused", fmt.Errorf("connect: %w", syscall.ECONNREFUSED), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	if d := ParseRetryAfter("17", now); d != 17*time.Second {
		t.Errorf("seconds form = %v, want 17s", d)
	}
	date := now.Add(90 * time.Second).Format(http.TimeFormat)
	if d := ParseRetryAfter(date, now); d != 90*time.Second {
		t.Errorf("date form = %v, want 90s", d)
	}
	for _, bad := range []string{"", "soon", "-5"} {
		if d := ParseRetryAfter(bad, now); d != 0 {
			t.Errorf("ParseRetryAfter(%q) = %v, want 0", bad, d)
		}
	}
	past := now.Add(-time.Minute).Format(http.TimeFormat)
	if d := ParseRetryAfter(past, now); d != 0 {
		t.Errorf("past date = %v, want 0", d)
	}
}

func TestSleepIsContextAware(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Errorf("Sleep under cancelled ctx = %v, want Canceled", err)
	}
	if err := Sleep(context.Background(), time.Microsecond); err != nil {
		t.Errorf("short sleep = %v", err)
	}
}
