package serve

import (
	"context"
	"strings"
	"testing"

	"github.com/nu-aqualab/borges/internal/cluster"
)

// TestOnSwapAndExtraMetrics covers the two server extension points the
// fleet builds on: OnSwap observes every successfully published
// snapshot (but not the initial one), and a family added to
// Server.Registry after NewServer prints on /metrics after the
// server's own.
func TestOnSwapAndExtraMetrics(t *testing.T) {
	var swaps []*Snapshot
	srv := newTestServer(t, Options{
		Prepared: mappingSource(func(ctx context.Context) (*cluster.Mapping, error) { return testMapping(t), nil }),
		OnSwap:   func(s *Snapshot) { swaps = append(swaps, s) },
	})
	srv.Registry().Gauge("borgesd_test_extra", "A family added after NewServer.", func() float64 { return 42 })
	if len(swaps) != 0 {
		t.Fatalf("OnSwap fired %d times before any reload", len(swaps))
	}

	next, err := srv.Reload(context.Background())
	if err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if len(swaps) != 1 || swaps[0] != next {
		t.Fatalf("OnSwap saw %d snapshots, want exactly the reloaded one", len(swaps))
	}

	body := do(t, srv, "GET", "/metrics", nil).Body.String()
	if !strings.HasSuffix(body, "# HELP borgesd_test_extra A family added after NewServer.\n"+
		"# TYPE borgesd_test_extra gauge\nborgesd_test_extra 42\n") {
		t.Fatalf("/metrics does not end with the added family:\n%s", body)
	}
}
