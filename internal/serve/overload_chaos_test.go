package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/admission"
	"github.com/nu-aqualab/borges/internal/cluster"
)

// serveClock is a manually advanced clock injected through
// Options.now, making observed request latencies — and therefore
// every AIMD decision — a pure function of the test script.
type serveClock struct{ ns atomic.Int64 }

func (c *serveClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *serveClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// waitAdmission polls the admission stats until cond holds.
func waitAdmission(t *testing.T, srv *Server, cond func(admission.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond(srv.Admission().Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("admission state never settled; stats = %+v", srv.Admission().Stats())
}

// TestOverloadBurstChaos is the serving-side load-chaos cell: a burst
// 10× over the concurrency limit slams the daemon while admitted
// requests are pinned in-flight, and the test asserts the exact
// overload contract:
//
//   - /healthz and /metrics answer 100% throughout the burst,
//   - point lookups succeed at >= the configured floor
//     (MaxInflight admitted + QueueDepth queued),
//   - every shed response is 503 and carries Retry-After,
//   - after the burst the adaptive limit recovers to within 10% of
//     its pre-burst steady state — shedding is a state, not a scar.
//
// Interleaving is pinned: the gate holds admitted requests so
// saturation is total and observable, the fake clock decides which
// completions count as slow, and the fixed seed makes the request mix
// reproducible. Run under -race in the CI load-smoke job.
func TestOverloadBurstChaos(t *testing.T) {
	const (
		seed        = 42
		universe    = 64
		maxInflight = 4
		queueDepth  = 2
		floor       = maxInflight + queueDepth // point-lookup success floor
		pointBurst  = 10 * maxInflight
		searchBurst = 20
		target      = 50 * time.Millisecond
	)
	rng := rand.New(rand.NewSource(seed))
	clock := &serveClock{}
	snap, err := NewSnapshot(variantMapping(1, universe), "chaos")
	if err != nil {
		t.Fatal(err)
	}

	var holding atomic.Bool
	gate := make(chan struct{})
	srv, err := NewServer(snap, Options{
		now: clock.Now,
		Admission: &admission.Config{
			MaxInflight:     maxInflight,
			QueueDepth:      queueDepth,
			TargetLatency:   target,
			ShedSearchFirst: true,
		},
		testHold: func(endpoint string) {
			if holding.Load() && endpoint == "as" {
				<-gate
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1 — steady state: sequential point lookups at zero
	// observed latency keep the limit pinned at its ceiling.
	for i := 0; i < 20; i++ {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec,
			httptest.NewRequest("GET", fmt.Sprintf("/v1/as/%d", rng.Intn(universe)+1), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("steady-state lookup %d: status %d", i, rec.Code)
		}
	}
	steady := srv.Admission().Stats().Limit
	if steady != maxInflight {
		t.Fatalf("steady-state limit = %v, want %v", steady, maxInflight)
	}

	// Phase 2 — burst: pointBurst concurrent lookups arrive while the
	// gate pins every admitted one in-flight. Exactly maxInflight are
	// admitted, queueDepth queue, and the rest shed.
	holding.Store(true)
	type outcome struct {
		code       int
		retryAfter string
	}
	results := make(chan outcome, pointBurst)
	var wg sync.WaitGroup
	for i := 0; i < pointBurst; i++ {
		asn := rng.Intn(universe) + 1
		wg.Add(1)
		go func(asn int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec,
				httptest.NewRequest("GET", fmt.Sprintf("/v1/as/%d", asn), nil))
			results <- outcome{rec.Code, rec.Header().Get("Retry-After")}
		}(asn)
	}
	waitAdmission(t, srv, func(s admission.Stats) bool {
		return s.Inflight == maxInflight &&
			s.QueueDepth == queueDepth &&
			s.ShedPoint == pointBurst-floor
	})

	// Invariant: health and metrics answer 100% while the limiter is
	// slammed shut.
	for i := 0; i < 20; i++ {
		for _, path := range []string{"/healthz", "/metrics"} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s during burst: status %d", path, rec.Code)
			}
		}
	}
	// Invariant: the expensive scan sheds first — every search during
	// saturation refuses with 503 + Retry-After.
	for i := 0; i < searchBurst; i++ {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?name=org", nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("search %d during burst: status %d, want 503", i, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("search shed %d missing Retry-After", i)
		}
	}

	// Let the pinned requests complete as slow (10× target): the AIMD
	// limit takes one multiplicative hit per held/queued completion.
	clock.Advance(10 * target)
	close(gate)
	holding.Store(false)
	wg.Wait()

	okCount, shedCount := 0, 0
	for i := 0; i < pointBurst; i++ {
		r := <-results
		switch r.code {
		case http.StatusOK:
			okCount++
		case http.StatusServiceUnavailable:
			shedCount++
			if r.retryAfter == "" {
				t.Error("point shed missing Retry-After")
			}
		default:
			t.Errorf("point lookup: unexpected status %d", r.code)
		}
	}
	if okCount < floor {
		t.Fatalf("point successes during burst = %d, want >= floor %d", okCount, floor)
	}
	if shedCount != pointBurst-floor {
		t.Fatalf("point sheds = %d, want exactly %d", shedCount, pointBurst-floor)
	}

	depressed := srv.Admission().Stats().Limit
	if depressed >= steady {
		t.Fatalf("limit after burst = %v, want < steady %v (the burst must have bitten)", depressed, steady)
	}

	// Phase 3 — recovery: fast completions grow the limit back. No
	// permanent depression: within 10% of the pre-burst steady state.
	for i := 0; i < 100; i++ {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec,
			httptest.NewRequest("GET", fmt.Sprintf("/v1/as/%d", rng.Intn(universe)+1), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("recovery lookup %d: status %d", i, rec.Code)
		}
	}
	recovered := srv.Admission().Stats().Limit
	if recovered < 0.9*steady {
		t.Fatalf("recovered limit = %v, want >= 90%% of steady %v", recovered, steady)
	}
	// And the limiter re-opened for the class it shed first.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?name=org", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("search after recovery: status %d, want 200", rec.Code)
	}
}

// TestSearchBrownoutUnderPressure pins enough point lookups in-flight
// to cross the brownout threshold and checks that search still
// answers 200 — but capped, cheap, and flagged.
func TestSearchBrownoutUnderPressure(t *testing.T) {
	const universe = 64
	snap, err := NewSnapshot(variantMapping(1, universe), "brownout")
	if err != nil {
		t.Fatal(err)
	}
	var holding atomic.Bool
	gate := make(chan struct{})
	srv, err := NewServer(snap, Options{
		Admission: &admission.Config{
			MaxInflight:     4,
			QueueDepth:      2,
			ShedSearchFirst: true,
			BrownoutLimit:   3,
		},
		testHold: func(endpoint string) {
			if holding.Load() && endpoint == "as" {
				<-gate
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Unpressured search: full-fidelity, no brownout flag.
	var full struct {
		Brownout bool `json:"brownout"`
		Matches  []struct {
			Org int `json:"org"`
		} `json:"matches"`
	}
	rec := do(t, srv, "GET", "/v1/search?name=org", &full)
	if rec.Code != http.StatusOK || full.Brownout {
		t.Fatalf("idle search: status %d brownout %v", rec.Code, full.Brownout)
	}
	if len(full.Matches) <= 3 {
		t.Fatalf("idle search returned %d matches; need > 3 for the brownout cap to be observable", len(full.Matches))
	}

	// Pin 3 of 4 slots (the brownout fraction) without saturating.
	holding.Store(true)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(asn int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec,
				httptest.NewRequest("GET", fmt.Sprintf("/v1/as/%d", asn), nil))
		}(i + 1)
	}
	waitAdmission(t, srv, func(s admission.Stats) bool { return s.Inflight == 3 })

	var browned struct {
		Brownout bool `json:"brownout"`
		Matches  []struct {
			Org int `json:"org"`
		} `json:"matches"`
	}
	rec = do(t, srv, "GET", "/v1/search?name=org", &browned)
	if rec.Code != http.StatusOK {
		t.Fatalf("browned search: status %d", rec.Code)
	}
	if !browned.Brownout {
		t.Fatal("search under pressure did not brown out")
	}
	if len(browned.Matches) == 0 || len(browned.Matches) > 3 {
		t.Fatalf("browned search returned %d matches, want 1..3 (the BrownoutLimit cap)", len(browned.Matches))
	}
	if got := srv.Admission().Stats().Brownouts; got == 0 {
		t.Fatal("brownout not counted")
	}

	close(gate)
	holding.Store(false)
	wg.Wait()
}

// TestRetryAfterOnEvery429And503 sweeps the three refusal paths the
// server can produce — per-client rate limit (429), overload shed
// (503), and a reload that lost its deadline (503) — and asserts each
// carries a positive integral Retry-After header.
func TestRetryAfterOnEvery429And503(t *testing.T) {
	assertRetryAfter := func(t *testing.T, rec *httptest.ResponseRecorder) {
		t.Helper()
		ra := rec.Header().Get("Retry-After")
		if ra == "" {
			t.Fatalf("status %d without Retry-After", rec.Code)
		}
		var secs int
		if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 || ra != fmt.Sprintf("%d", secs) {
			t.Fatalf("Retry-After = %q, want positive integral seconds", ra)
		}
	}

	t.Run("ratelimit 429", func(t *testing.T) {
		srv := newTestServer(t, Options{
			Admission: &admission.Config{MaxInflight: 8, Rate: 1, Burst: 1},
		})
		if rec := do(t, srv, "GET", "/v1/as/3356", nil); rec.Code != http.StatusOK {
			t.Fatalf("first request: %d", rec.Code)
		}
		rec := do(t, srv, "GET", "/v1/as/3356", nil)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("drained bucket: status %d, want 429", rec.Code)
		}
		assertRetryAfter(t, rec)
	})

	t.Run("overload 503", func(t *testing.T) {
		var holding atomic.Bool
		gate := make(chan struct{})
		srv := newTestServer(t, Options{
			Admission: &admission.Config{MaxInflight: 1, QueueDepth: 1, ShedSearchFirst: true},
			testHold: func(endpoint string) {
				if holding.Load() && endpoint == "as" {
					<-gate
				}
			},
		})
		holding.Store(true)
		done := make(chan struct{})
		go func() {
			defer close(done)
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/as/3356", nil))
		}()
		waitAdmission(t, srv, func(s admission.Stats) bool { return s.Inflight == 1 })
		rec := do(t, srv, "GET", "/v1/search?name=lumen", nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("search under saturation: status %d, want 503", rec.Code)
		}
		assertRetryAfter(t, rec)
		close(gate)
		holding.Store(false)
		<-done
	})

	t.Run("reload deadline 503", func(t *testing.T) {
		src := func(ctx context.Context) (*cluster.Mapping, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		srv := newTestServer(t, Options{Prepared: mappingSource(src), RequestTimeout: 20 * time.Millisecond})
		rec := do(t, srv, "POST", "/admin/reload", nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("deadline reload: status %d, want 503", rec.Code)
		}
		assertRetryAfter(t, rec)
	})
}

// TestSearchLimitParsing covers the strconv.Atoi fix: trailing
// garbage is a 400, not a silently truncated parse, and requests
// beyond the server-side ceiling are clamped rather than honoured.
func TestSearchLimitParsing(t *testing.T) {
	srv := newTestServer(t, Options{})
	for _, bad := range []string{"50abc", "0x10", "1e3", "++2", "0", "-3", "%205"} {
		rec := do(t, srv, "GET", "/v1/search?name=a&limit="+bad, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("limit=%q: status %d, want 400", bad, rec.Code)
		}
	}
	var got struct {
		Matches []struct {
			Org int `json:"org"`
		} `json:"matches"`
	}
	rec := do(t, srv, "GET", "/v1/search?name=a&limit=999999", &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("huge limit: status %d, want 200 (clamped), body %s", rec.Code, rec.Body)
	}
	if len(got.Matches) > maxSearchLimit {
		t.Fatalf("clamp failed: %d matches > server max %d", len(got.Matches), maxSearchLimit)
	}
	if rec := do(t, srv, "GET", "/v1/search?name=a&limit=2", &got); rec.Code != http.StatusOK || len(got.Matches) > 2 {
		t.Fatalf("valid limit: status %d, %d matches", rec.Code, len(got.Matches))
	}
}

// TestOrgIDParsing covers the same Sscanf→Atoi fix on /v1/org/{id}.
func TestOrgIDParsing(t *testing.T) {
	srv := newTestServer(t, Options{})
	for _, bad := range []string{"7abc", "0x1", "1 2"} {
		rec := do(t, srv, "GET", "/v1/org/"+strings.ReplaceAll(bad, " ", "%20"), nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("org id %q: status %d, want 400", bad, rec.Code)
		}
	}
}

// TestShedsExcludedFromErrorMetrics checks the metrics contract:
// sheds count as requests and sheds, never as 5xx handler errors or
// served latencies. A shed logs one record naming its class.
func TestShedsExcludedFromErrorMetrics(t *testing.T) {
	var holding atomic.Bool
	gate := make(chan struct{})
	var log logBuffer
	srv := newTestServer(t, Options{
		Logger:    log.logger(),
		Admission: &admission.Config{MaxInflight: 1, QueueDepth: 1, ShedSearchFirst: true},
		testHold: func(endpoint string) {
			if holding.Load() && endpoint == "as" {
				<-gate
			}
		},
	})
	holding.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/as/3356", nil))
	}()
	waitAdmission(t, srv, func(s admission.Stats) bool { return s.Inflight == 1 })
	if rec := do(t, srv, "GET", "/v1/search?name=a", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expected shed, got %d", rec.Code)
	}
	close(gate)
	holding.Store(false)
	<-done

	if got := srv.metrics.endpoint("search").sheds.Load(); got != 1 {
		t.Fatalf("Sheds(search) = %d, want 1", got)
	}
	rec := do(t, srv, "GET", "/metrics", nil)
	body := rec.Body.String()
	if !strings.Contains(body, `borgesd_sheds_total{endpoint="search"} 1`) {
		t.Errorf("metrics missing shed counter:\n%s", body)
	}
	if !strings.Contains(body, `borgesd_errors_total{endpoint="search"} 0`) {
		t.Errorf("shed leaked into errors_total:\n%s", body)
	}
	for _, want := range []string{`borgesd_requests_total{endpoint="search"} 1`, `borgesd_request_latency_seconds_count{endpoint="search"} 0`} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %s:\n%s", want, body)
		}
	}
	var sheds []map[string]any
	for _, rec := range log.records(t) {
		if rec["msg"] == "shed" {
			delete(rec, "time")
			sheds = append(sheds, rec)
		}
	}
	want := map[string]any{"level": "INFO", "msg": "shed", "endpoint": "search", "class": "search",
		"reason": "saturated", "status": 503.0, "retry_after_s": 1.0}
	if len(sheds) != 1 || !reflect.DeepEqual(sheds[0], want) {
		t.Errorf("shed records = %v, want [%v]", sheds, want)
	}
	for _, name := range []string{"borgesd_admission_inflight", "borgesd_admission_limit", "borgesd_admission_sheds_total"} {
		if !strings.Contains(body, name) {
			t.Errorf("metrics missing %s", name)
		}
	}
}
