package resilience

import (
	"context"
	"errors"
	"sync/atomic"
)

// Executor combines a retry Policy with a per-key BreakerSet and counts
// what it spent — the one fault-tolerance entry point the crawler and
// the LLM layer share. Either part is optional: a nil Policy runs a
// single attempt, a nil Breakers never denies.
type Executor struct {
	// Policy governs retries (nil = single attempt).
	Policy *Policy
	// Breakers supplies per-key circuit breakers (nil = no breaking).
	Breakers *BreakerSet

	attempts atomic.Int64
	retries  atomic.Int64
	denials  atomic.Int64
}

// ExecStats are an Executor's cumulative counters.
type ExecStats struct {
	// Attempts counts operations started (including retries).
	Attempts int64
	// Retries counts re-attempts after a transient failure.
	Retries int64
	// Denials counts calls rejected by an open breaker without running.
	Denials int64
	// BreakerTrips counts circuit openings across all keys.
	BreakerTrips int64
}

// Stats returns the executor's counters.
func (e *Executor) Stats() ExecStats {
	s := ExecStats{
		Attempts: e.attempts.Load(),
		Retries:  e.retries.Load(),
		Denials:  e.denials.Load(),
	}
	if e.Breakers != nil {
		s.BreakerTrips = e.Breakers.Trips()
	}
	return s
}

// retryable resolves the effective classification function.
func (e *Executor) retryable(err error) bool {
	if e.Policy != nil {
		return e.Policy.retryable(err)
	}
	return IsTransient(err)
}

// Do runs op keyed by key. When the key's breaker is open the call is
// denied with a BreakerOpenError; denials are never retried — retrying
// against a tripped circuit is exactly the load the breaker exists to
// shed. Otherwise the operation runs under the retry policy; every
// attempt's outcome feeds the breaker, with only retryable failures
// counting against it (a 404 is the backend answering, not failing).
//
// A key gets a breaker on its first counted failure. Until then it
// behaves as a closed breaker with no failures, which admits every
// call and has nothing for a success to reset.
func (e *Executor) Do(ctx context.Context, key string, op func(ctx context.Context) error) error {
	attempt := func(ctx context.Context) error {
		var br *Breaker
		if e.Breakers != nil {
			br = e.Breakers.lookup(key)
		}
		if br != nil && !br.Allow() {
			e.denials.Add(1)
			return &BreakerOpenError{Key: key}
		}
		e.attempts.Add(1)
		err := op(ctx)
		if e.Breakers != nil {
			ok := err == nil || !e.retryable(err)
			if br == nil && !ok {
				br = e.Breakers.Get(key)
			}
			if br != nil {
				br.Record(ok)
			}
		}
		return err
	}
	if e.Policy == nil {
		return attempt(ctx)
	}
	retryable := func(err error) bool {
		var denied *BreakerOpenError
		if errors.As(err, &denied) {
			return false
		}
		return e.Policy.retryable(err)
	}
	return e.Policy.doWith(ctx, attempt, func() { e.retries.Add(1) }, retryable)
}
