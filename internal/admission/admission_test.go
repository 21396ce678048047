package admission

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/obs"
)

// fakeClock is a manually advanced clock shared with the controller.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// admit is a test helper that fails on refusal.
func admit(t *testing.T, c *Controller, class Class, client string) func(time.Duration) {
	t.Helper()
	release, dec := c.Admit(context.Background(), class, client)
	if !dec.Admitted {
		t.Fatalf("expected admission for %v, got %+v", class, dec)
	}
	return release
}

// waitStats polls until cond observes a satisfying Stats or the
// deadline passes.
func waitStats(t *testing.T, c *Controller, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(c.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached; stats = %+v", c.Stats())
}

func TestNewRequiresMaxInflight(t *testing.T) {
	if c := New(Config{}); c != nil {
		t.Fatal("New with MaxInflight 0 should return nil (admission disabled)")
	}
	if c := New(Config{MaxInflight: 4}); c == nil {
		t.Fatal("New with MaxInflight 4 returned nil")
	}
}

func TestAIMDShrinksOnSlowGrowsOnFast(t *testing.T) {
	target := 100 * time.Millisecond
	c := New(Config{MaxInflight: 8, TargetLatency: target})
	if got := c.Stats().Limit; got != 8 {
		t.Fatalf("initial limit = %v, want 8", got)
	}

	// Three over-target completions: 8 → 8β → 8β² → 8β³.
	for i := 0; i < 3; i++ {
		admit(t, c, Point, "a")(2 * target)
	}
	want := 8 * aimdBeta * aimdBeta * aimdBeta
	if got := c.Stats().Limit; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("limit after 3 slow completions = %v, want %v", got, want)
	}

	// Fast completions climb back and saturate at the ceiling.
	for i := 0; i < 200; i++ {
		admit(t, c, Point, "a")(0)
	}
	if got := c.Stats().Limit; got != 8 {
		t.Fatalf("limit after recovery = %v, want 8 (the ceiling)", got)
	}

	// The floor holds no matter how many slow completions land.
	c2 := New(Config{MaxInflight: 4, MinInflight: 2, TargetLatency: target})
	for i := 0; i < 100; i++ {
		admit(t, c2, Point, "a")(2 * target)
	}
	if got := c2.Stats().Limit; got != 2 {
		t.Fatalf("limit floor = %v, want MinInflight 2", got)
	}
}

// TestPriorityShedOrder saturates a 1-slot limiter and checks each
// class's fate: Critical admitted, Search shed immediately, Point
// queued until the slot frees, further Point shed on queue overflow.
func TestPriorityShedOrder(t *testing.T) {
	c := New(Config{MaxInflight: 1, QueueDepth: 1, ShedSearchFirst: true})
	held := admit(t, c, Point, "a") // occupy the only slot

	// Critical bypasses the saturated limiter.
	admit(t, c, Critical, "a")(0)

	// Search sheds first: refused immediately, 503, Retry-After set.
	_, dec := c.Admit(context.Background(), Search, "a")
	if dec.Admitted || dec.Status != 503 || dec.RetryAfter <= 0 || dec.Reason != "saturated" {
		t.Fatalf("search under saturation: %+v", dec)
	}

	// Point queues (in a goroutine: it blocks until the slot frees).
	admitted := make(chan func(time.Duration), 1)
	go func() {
		release, dec := c.Admit(context.Background(), Point, "a")
		if dec.Admitted {
			admitted <- release
		}
	}()
	waitStats(t, c, func(s Stats) bool { return s.QueueDepth == 1 })

	// Queue is full now: the next Point sheds last, but does shed.
	_, dec = c.Admit(context.Background(), Point, "a")
	if dec.Admitted || dec.Status != 503 || dec.Reason != "queue-full" {
		t.Fatalf("point with full queue: %+v", dec)
	}

	st := c.Stats()
	if st.ShedSearch != 1 || st.ShedPoint != 1 {
		t.Fatalf("shed counters = point %d / search %d, want 1/1", st.ShedPoint, st.ShedSearch)
	}

	// Freeing the slot admits the queued waiter FIFO.
	held(0)
	select {
	case release := <-admitted:
		release(0)
	case <-time.After(5 * time.Second):
		t.Fatal("queued point request was never admitted after release")
	}
	if st := c.Stats(); st.Inflight != 0 || st.QueueDepth != 0 {
		t.Fatalf("limiter did not drain: %+v", st)
	}
}

func TestQueuedRequestRespectsDeadline(t *testing.T) {
	c := New(Config{MaxInflight: 1, QueueDepth: 4})
	held := admit(t, c, Point, "a")
	defer held(0)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, dec := c.Admit(ctx, Point, "a")
	if dec.Admitted || dec.Reason != "deadline" || dec.Status != 503 {
		t.Fatalf("queued request past deadline: %+v", dec)
	}
	st := c.Stats()
	if st.QueueTimeouts != 1 || st.QueueDepth != 0 {
		t.Fatalf("timeouts %d queue %d, want 1 and 0 (canceled waiter removed)", st.QueueTimeouts, st.QueueDepth)
	}
}

func TestShedSearchFirstOffLetsSearchQueue(t *testing.T) {
	c := New(Config{MaxInflight: 1, QueueDepth: 1, ShedSearchFirst: false})
	held := admit(t, c, Point, "a")

	admitted := make(chan func(time.Duration), 1)
	go func() {
		release, dec := c.Admit(context.Background(), Search, "a")
		if dec.Admitted {
			admitted <- release
		}
	}()
	waitStats(t, c, func(s Stats) bool { return s.QueueDepth == 1 })
	held(0)
	select {
	case release := <-admitted:
		release(0)
	case <-time.After(5 * time.Second):
		t.Fatal("search never admitted from queue with ShedSearchFirst off")
	}
}

func TestRateLimitPerClient(t *testing.T) {
	clock := &fakeClock{}
	c := New(Config{MaxInflight: 100, Rate: 1, Burst: 2, Now: clock.Now})

	// The burst admits two, the third refuses with a whole-seconds hint.
	admit(t, c, Point, "alice")(0)
	admit(t, c, Point, "alice")(0)
	_, dec := c.Admit(context.Background(), Point, "alice")
	if dec.Admitted || dec.Status != 429 || dec.Reason != "ratelimit" {
		t.Fatalf("third request in burst: %+v", dec)
	}
	if dec.RetryAfter < time.Second {
		t.Fatalf("Retry-After hint = %v, want >= 1s", dec.RetryAfter)
	}

	// Other clients have their own buckets.
	admit(t, c, Point, "bob")(0)

	// Critical traffic is exempt even for a drained client.
	admit(t, c, Critical, "alice")(0)

	// Tokens accrue with time.
	clock.Advance(time.Second)
	admit(t, c, Point, "alice")(0)

	if got := c.Stats().RateLimited; got != 1 {
		t.Fatalf("RateLimited = %d, want 1", got)
	}
}

func TestBucketLRUBoundsMemory(t *testing.T) {
	clock := &fakeClock{}
	c := New(Config{MaxInflight: 100, Rate: 1, Burst: 1, MaxClients: 2, Now: clock.Now})

	admit(t, c, Point, "a")(0) // a's bucket now empty
	admit(t, c, Point, "b")(0)
	admit(t, c, Point, "c")(0) // evicts a (least recently seen)
	if got := c.Stats().BucketEvictions; got != 1 {
		t.Fatalf("BucketEvictions = %d, want 1", got)
	}
	// a was forgotten, so it returns with a full burst despite having
	// spent it — the documented fail-open trade of bounding memory.
	if _, dec := c.Admit(context.Background(), Point, "a"); !dec.Admitted {
		t.Fatalf("evicted client not readmitted with fresh bucket: %+v", dec)
	}
}

func TestBrownoutTracksPressure(t *testing.T) {
	c := New(Config{MaxInflight: 4, BrownoutLimit: 7})
	if _, active := c.BrownoutSearch(); active {
		t.Fatal("brownout active on an idle limiter")
	}
	r1 := admit(t, c, Point, "a")
	r2 := admit(t, c, Point, "a")
	if _, active := c.BrownoutSearch(); active {
		t.Fatal("brownout active at 2/4 occupancy")
	}
	r3 := admit(t, c, Point, "a") // 3/4 = brownoutFraction
	capLimit, active := c.BrownoutSearch()
	if !active || capLimit != 7 {
		t.Fatalf("brownout at 3/4 occupancy = (%d, %v), want (7, true)", capLimit, active)
	}
	r1(0)
	r2(0)
	r3(0)
	if got := c.Stats().Brownouts; got != 1 {
		t.Fatalf("Brownouts = %d, want 1", got)
	}
}

func TestWriteMetricsRendersFullFamily(t *testing.T) {
	c := New(Config{MaxInflight: 4, Rate: 10})
	var reg obs.Registry
	c.Register(&reg)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"borgesd_admission_inflight",
		"borgesd_admission_limit",
		"borgesd_admission_queue_depth",
		"borgesd_admission_sheds_total{class=\"point\"}",
		"borgesd_admission_sheds_total{class=\"search\"}",
		"borgesd_admission_queue_timeouts_total",
		"borgesd_admission_ratelimited_total",
		"borgesd_admission_bucket_evictions_total",
		"borgesd_admission_brownouts_total",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metrics output missing %s", name)
		}
	}
}
