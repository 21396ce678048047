package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fleetExposition scrapes h's /metrics and returns its borgesd_fleet_*
// lines (HELP, TYPE and samples) with every sample value replaced by
// "V". It fails the test unless those lines close the exposition: the
// fleet's families follow the server's own.
func fleetExposition(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	var out []string
	for i, line := range lines {
		if !strings.Contains(line, "borgesd_fleet_") {
			if len(out) > 0 {
				t.Fatalf("/metrics line %d %q follows the fleet families", i+1, line)
			}
			continue
		}
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')+1] + "V"
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n") + "\n"
}

// TestFleetMetricsGolden holds a distributor's and a replica's
// borgesd_fleet_* families to testdata/fleet_metrics.golden: the same
// HELP and TYPE lines, sample names, labels and order, after the
// server's own families. Values are masked; the fleet tests check them.
func TestFleetMetricsGolden(t *testing.T) {
	td := newTestDist(t)
	rep, err := NewReplica(context.Background(), replicaOpts("r1", td.ts.URL, t.TempDir()))
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	got := "# distributor\n" + fleetExposition(t, td.dist.Handler()) +
		"# replica\n" + fleetExposition(t, rep.Server().Handler())
	want, err := os.ReadFile(filepath.Join("testdata", "fleet_metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("fleet families differ from testdata/fleet_metrics.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
