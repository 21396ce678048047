package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"
)

// TestHealthzDegradedVersusOK: a snapshot built from a degraded run
// reports "degraded" on /healthz — with HTTP 200, because a partial
// mapping serving is availability, not an outage — while a clean
// snapshot reports "ok".
func TestHealthzDegradedVersusOK(t *testing.T) {
	srv := newTestServer(t, Options{})
	var got struct {
		Status      string `json:"status"`
		Quarantined int    `json:"quarantined"`
		Detail      string `json:"detail"`
	}
	if rec := do(t, srv, "GET", "/healthz", &got); rec.Code != http.StatusOK || got.Status != HealthOK {
		t.Fatalf("clean healthz = %d %+v, want 200 ok", rec.Code, got)
	}

	snap, err := NewSnapshotWithHealth(testMapping(t), "pipeline",
		Health{Status: HealthDegraded, Quarantined: 3, Detail: "crawl degraded"})
	if err != nil {
		t.Fatal(err)
	}
	srv.snap.Store(snap)
	rec := do(t, srv, "GET", "/healthz", &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded healthz status = %d, want 200 (degraded is not down)", rec.Code)
	}
	if got.Status != HealthDegraded || got.Quarantined != 3 || got.Detail != "crawl degraded" {
		t.Fatalf("degraded healthz body = %+v", got)
	}
}

// TestStatsAndMetricsCarryHealth: /v1/stats embeds the health block
// and /metrics exports the degraded gauge and quarantine count.
func TestStatsAndMetricsCarryHealth(t *testing.T) {
	srv := newTestServer(t, Options{})
	snap, err := NewSnapshotWithHealth(testMapping(t), "pipeline",
		Health{Status: HealthDegraded, Quarantined: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv.snap.Store(snap)

	var got struct {
		Health Health `json:"health"`
	}
	do(t, srv, "GET", "/v1/stats", &got)
	if got.Health.Status != HealthDegraded || got.Health.Quarantined != 7 {
		t.Fatalf("/v1/stats health = %+v", got.Health)
	}

	rec := do(t, srv, "GET", "/metrics", nil)
	body := rec.Body.String()
	if !strings.Contains(body, "borgesd_snapshot_degraded 1") {
		t.Errorf("metrics missing degraded gauge:\n%s", body)
	}
	if !strings.Contains(body, "borgesd_snapshot_quarantined 7") {
		t.Errorf("metrics missing quarantined gauge:\n%s", body)
	}
}

// TestReloadPropagatesHealth: a reload whose source builds its snapshot
// with the run's health (as borgesd's pipeline source does) publishes
// that health, and a later clean reload clears it — health travels
// with the mapping it describes.
func TestReloadPropagatesHealth(t *testing.T) {
	health := Health{Status: HealthDegraded, Quarantined: 2, Detail: "llm degraded"}
	var srv *Server
	srv = newTestServer(t, Options{
		Prepared: func(ctx context.Context) (*Snapshot, error) {
			return NewSnapshotWithHealth(testMapping(t), "pipeline", health)
		},
	})
	if _, err := srv.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h := srv.Snapshot().Health(); h != health {
		t.Fatalf("reloaded health = %+v, want %+v", h, health)
	}
	var got struct {
		Status string `json:"status"`
	}
	do(t, srv, "GET", "/healthz", &got)
	if got.Status != HealthDegraded {
		t.Fatalf("healthz after degraded reload = %q", got.Status)
	}

	health = Health{Status: HealthOK}
	if _, err := srv.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	do(t, srv, "GET", "/healthz", &got)
	if got.Status != HealthOK {
		t.Fatalf("healthz after clean reload = %q, want ok", got.Status)
	}
}
