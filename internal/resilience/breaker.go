package resilience

import (
	"sort"
	"sync"
	"time"
)

// State is a circuit breaker's position.
type State uint8

// Breaker states.
const (
	// StateClosed admits every call (normal operation).
	StateClosed State = iota
	// StateOpen denies every call until the cooldown elapses.
	StateOpen
	// StateHalfOpen admits one probe at a time; its outcome decides
	// whether the circuit closes or re-opens.
	StateHalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is one circuit breaker: it opens after Threshold consecutive
// transient failures, denies calls for Cooldown, then admits a single
// probe whose outcome closes or re-opens the circuit. Safe for
// concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    State
	fails    int
	openedAt time.Time
	probing  bool
	trips    int64
}

// NewBreaker returns a closed breaker. threshold <= 0 defaults to 5
// consecutive failures; cooldown <= 0 defaults to 30s.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a call may proceed. In the half-open state only
// one probe is admitted at a time; concurrent callers are denied until
// the probe reports its outcome via Record.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = StateHalfOpen
		b.probing = true
		return true
	default: // StateHalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports a call's outcome. ok should be true when the call
// succeeded or failed for a reason the breaker must not count (a 404 is
// the host answering, not the host failing).
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		if ok {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.threshold {
			b.open()
		}
	case StateHalfOpen:
		b.probing = false
		if ok {
			b.state = StateClosed
			b.fails = 0
			return
		}
		b.open()
	default:
		// A straggler finishing after the circuit opened: ignore.
	}
}

// open transitions to StateOpen under b.mu.
func (b *Breaker) open() {
	b.state = StateOpen
	b.openedAt = b.now()
	b.fails = 0
	b.probing = false
	b.trips++
}

// State returns the breaker's current position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// BreakerSet is a registry of per-key breakers — one per crawl host,
// one per LLM provider/model — with shared settings. Keys follow the
// cache-key convention of a namespaced identity ("crawl:example.com",
// "llm:gpt-4o-mini"). A key with no entry behaves as a closed breaker
// with no failures, so the Executor creates a key's entry on its first
// failure: a crawl of 24k healthy hosts keeps no state for them.
type BreakerSet struct {
	// Threshold and Cooldown configure breakers created by Get; zero
	// values select NewBreaker's defaults.
	Threshold int
	Cooldown  time.Duration
	// Now overrides the clock in tests.
	Now func() time.Time

	mu sync.RWMutex
	m  map[string]*Breaker
}

// Get returns the breaker for key, creating it if needed.
func (s *BreakerSet) Get(key string) *Breaker {
	if b := s.lookup(key); b != nil {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*Breaker)
	}
	b, ok := s.m[key]
	if !ok {
		b = NewBreaker(s.Threshold, s.Cooldown)
		if s.Now != nil {
			b.now = s.Now
		}
		s.m[key] = b
	}
	return b
}

// lookup returns the breaker for key, or nil if the key has none yet.
func (s *BreakerSet) lookup(key string) *Breaker {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[key]
}

// Trips sums trips across every breaker in the set.
func (s *BreakerSet) Trips() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, b := range s.m {
		total += b.Trips()
	}
	return total
}

// Open returns the keys whose breakers are not closed, sorted — the
// degradation report's "which backends are we avoiding right now".
func (s *BreakerSet) Open() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for key, b := range s.m {
		if b.State() != StateClosed {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}
