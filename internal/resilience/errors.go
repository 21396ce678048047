// Package resilience is Borges's reusable fault-tolerance layer: a
// unified retry policy (bounded attempts, jittered exponential backoff,
// Retry-After awareness, and an optional shared retry budget), per-key
// circuit breakers (closed → open → half-open with probe admission),
// and the transient-error taxonomy the pipeline uses to decide what may
// be retried, what must never be cached, and what belongs in a run's
// quarantine report.
//
// The package is deliberately dependency-free (stdlib only): the
// crawler wraps its per-host HTTP fetches in an Executor, the LLM layer
// wraps providers per model, and core.Run aggregates both executors'
// counters into the machine-readable RunReport. One policy type
// replaces the previous ad-hoc retry loops, so backoff math, budget
// accounting, and breaker behaviour are identical across every
// backend.
package resilience

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"syscall"
	"time"
)

// ErrOpen is the sentinel wrapped by BreakerOpenError; callers test for
// it with errors.Is.
var ErrOpen = errors.New("resilience: circuit open")

// BreakerOpenError reports that an operation was denied without being
// attempted because its circuit breaker is open.
type BreakerOpenError struct {
	// Key identifies the breaker (e.g. "crawl:example.com").
	Key string
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("resilience: circuit open for %s", e.Key)
}

// Unwrap makes errors.Is(err, ErrOpen) work.
func (e *BreakerOpenError) Unwrap() error { return ErrOpen }

// ExhaustedError reports that an operation kept failing transiently
// until its retry budget ran out. It wraps the last attempt's error.
type ExhaustedError struct {
	// Attempts is how many times the operation ran.
	Attempts int
	// BudgetSpent is true when the shared Budget, not the per-call
	// attempt bound, ended the retries.
	BudgetSpent bool
	// Err is the final attempt's error.
	Err error
}

func (e *ExhaustedError) Error() string {
	if e.BudgetSpent {
		return fmt.Sprintf("resilience: retry budget exhausted after %d attempts: %v", e.Attempts, e.Err)
	}
	return fmt.Sprintf("resilience: giving up after %d attempts: %v", e.Attempts, e.Err)
}

func (e *ExhaustedError) Unwrap() error { return e.Err }

// StatusError is a retryable HTTP status (429 or 5xx) observed by a
// transport-level operation, optionally carrying the server's
// Retry-After hint. It is transient by definition: the server answered,
// but with a condition that says nothing durable about the resource.
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// RetryAfter is the parsed Retry-After hint (0 = none).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("resilience: status %d (%s)", e.Code, http.StatusText(e.Code))
}

// Transient marks StatusError for IsTransient.
func (e *StatusError) Transient() bool { return true }

// RetryAfterHint implements the delay-hint interface honored by Policy.
func (e *StatusError) RetryAfterHint() (time.Duration, bool) {
	return e.RetryAfter, e.RetryAfter > 0
}

// RetryAfterError attaches a server-provided retry delay to an error —
// the typed form of an HTTP Retry-After header. Retry layers prefer
// the hint over their own exponential backoff.
type RetryAfterError struct {
	// Err is the underlying failure.
	Err error
	// After is the server-requested wait.
	After time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Err, e.After)
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// RetryAfterHint implements the delay-hint interface.
func (e *RetryAfterError) RetryAfterHint() (time.Duration, bool) {
	return e.After, e.After > 0
}

// delayHinter is the interface a typed error implements to carry a
// server-provided retry delay.
type delayHinter interface {
	RetryAfterHint() (time.Duration, bool)
}

// RetryAfterOf extracts the innermost Retry-After hint from an error
// chain, or (0, false).
func RetryAfterOf(err error) (time.Duration, bool) {
	var h delayHinter
	if errors.As(err, &h) {
		return h.RetryAfterHint()
	}
	return 0, false
}

// ParseRetryAfter parses an HTTP Retry-After header value — either
// delay-seconds or an HTTP-date — relative to now. It returns 0 for
// empty, malformed, or already-elapsed values.
func ParseRetryAfter(value string, now time.Time) time.Duration {
	if value == "" {
		return 0
	}
	var secs int
	if _, err := fmt.Sscanf(value, "%d", &secs); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(value); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// transientError is the marker wrapper applied by MarkTransient.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// MarkTransient wraps err so IsTransient reports true — the
// fault-injection harness and transports use it to tag failures that
// reflect infrastructure conditions rather than properties of the
// target. MarkTransient(nil) is nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient classifies an error as a transport-level fault: a
// condition that may clear on retry and that says nothing durable about
// the resource. Transient outcomes are retried (when a policy allows),
// never cached, and reported as quarantined. Durable failures — DNS
// misses, connection refused, HTTP 404 — are genuine observations and
// are none of those.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var marked interface{ Transient() bool }
	if errors.As(err, &marked) && marked.Transient() {
		return true
	}
	var exhausted *ExhaustedError
	if errors.As(err, &exhausted) {
		return true
	}
	if errors.Is(err, ErrOpen) {
		return true
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return true
	}
	return errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}
