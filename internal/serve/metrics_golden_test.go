package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/admission"
	"github.com/nu-aqualab/borges/internal/mapdiff"
	"github.com/nu-aqualab/borges/internal/vfs"
)

// metricsGoldenScenario scripts a server with a fixed clock, admission
// control, a generation ring and a -snapshot-out artifact through every
// path that moves a /metrics series: point lookups (hit and miss), an
// organization, a search, stats, health, a bulk stream with an error
// line, a full reload, a failing reload, a delta reload, a reload the
// canary refuses, a rollback and a scrub cycle. It returns the /metrics
// body that follows.
func metricsGoldenScenario(t *testing.T) string {
	t.Helper()
	now := time.Unix(1_700_000_000, 0).UTC()
	dir := t.TempDir()
	ring, err := NewGenerationRing(filepath.Join(dir, "gens"), 4, vfs.OS, nil)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := newSnapshotAt(variantMapping(1, 64), "golden", Health{Status: HealthOK}, now.Add(-90*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := newSnapshotAt(variantMapping(2, 64), "golden", Health{Status: HealthOK}, now.Add(-30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	poisoned := poisonSearchIndex(t, mustSnapshot(t, variantMapping(4, 64)))
	full := 0
	srv, err := NewServer(initial, Options{
		now:         func() time.Time { return now },
		Admission:   &admission.Config{MaxInflight: 8},
		Generations: ring,
		SnapshotOut: filepath.Join(dir, "out.snapbin"),
		Prepared: func(context.Context) (*Snapshot, error) {
			full++
			switch full {
			case 1:
				return v2, nil
			case 2:
				return nil, errors.New("source unavailable")
			}
			return LoadSnapshot(bytes.NewReader(poisoned))
		},
		DeltaSource: func(context.Context) (*mapdiff.Delta, error) {
			return mapdiff.ComputeDelta(variantMapping(2, 64), variantMapping(3, 64)), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		method, target, body string
		status               int
	}{
		{"GET", "/v1/as/1", "", http.StatusOK},
		{"GET", "/v1/as/4000000", "", http.StatusNotFound},
		{"GET", "/v1/org/0", "", http.StatusOK},
		{"GET", "/v1/search?name=org", "", http.StatusOK},
		{"GET", "/v1/stats", "", http.StatusOK},
		{"GET", "/healthz", "", http.StatusOK},
		{"POST", "/v1/bulk", "1\n2\nnot-an-asn\n", http.StatusOK},
		{"POST", "/admin/reload", "", http.StatusOK},
		{"POST", "/admin/reload", "", http.StatusInternalServerError},
		{"POST", "/admin/reload?mode=delta", "", http.StatusOK},
		{"POST", "/admin/reload", "", http.StatusUnprocessableEntity},
		{"POST", "/admin/rollback", "", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(step.method, step.target, strings.NewReader(step.body)))
		if rec.Code != step.status {
			t.Fatalf("%s %s = %d, want %d: %s", step.method, step.target, rec.Code, step.status, rec.Body.String())
		}
	}
	if sum := srv.ScrubOnce(context.Background()); sum.Checked == 0 || sum.ProbeErr != nil {
		t.Fatalf("scrub = %+v, want artifacts checked and a passing probe", sum)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

// TestMetricsExpositionGolden holds /metrics to the exposition recorded
// in testdata/metrics.golden: the same HELP and TYPE lines, and the
// same sample names, labels and order. A value must equal the recorded
// one as a number, at the precision the recording printed it with
// ("0.750000" and "0.75" agree); a borgesd_mem_* value, which reads the
// Go runtime, need only be present.
func TestMetricsExpositionGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	compareExposition(t, string(want), metricsGoldenScenario(t))
}

// compareExposition compares a /metrics body with a recorded one line
// by line (see TestMetricsExpositionGolden).
func compareExposition(t *testing.T, want, got string) {
	t.Helper()
	wl := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	gl := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	for i := 0; i < max(len(wl), len(gl)); i++ {
		if i >= len(wl) || i >= len(gl) {
			t.Fatalf("/metrics has %d lines, want %d; first difference at line %d\ngot:\n%s", len(gl), len(wl), i+1, got)
		}
		w, g := wl[i], gl[i]
		if strings.HasPrefix(w, "#") || strings.HasPrefix(g, "#") {
			if w != g {
				t.Fatalf("line %d = %q, want %q", i+1, g, w)
			}
			continue
		}
		ws, wv, _ := cutLast(w)
		gs, gv, _ := cutLast(g)
		if ws != gs {
			t.Fatalf("line %d series %q, want %q", i+1, gs, ws)
		}
		if strings.HasPrefix(ws, "borgesd_mem_") {
			continue
		}
		if !sameValue(wv, gv) {
			t.Fatalf("line %d: %s = %s, want %s", i+1, gs, gv, wv)
		}
	}
}

// cutLast splits a sample line at its last space into series and value.
func cutLast(line string) (series, value string, ok bool) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return line, "", false
	}
	return line[:i], line[i+1:], true
}

// sameValue reports whether got, parsed as a number, prints as want at
// want's number of decimals.
func sameValue(want, got string) bool {
	v, err := strconv.ParseFloat(got, 64)
	if err != nil {
		return false
	}
	decimals := 0
	if i := strings.IndexByte(want, '.'); i >= 0 {
		decimals = len(want) - i - 1
	}
	return strconv.FormatFloat(v, 'f', decimals, 64) == want
}
