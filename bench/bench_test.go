package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end, and pipeline-io traced, on
// a toy corpus (scale 0.02, one-second steps) against a borgesd built
// into a temporary directory, and checks the run's contract: each
// summary line holds exactly the metrics BENCHMARK.json lists for its
// mode, with their units; every metric recorded is listed there (run
// checks this); each per-layer metric that is not a layer's
// ("module.name") is also measured by some workload's end-to-end run;
// no operation failed; and every span lies inside its parent's
// interval. The traced run is the same code for every workload;
// pipeline-io adds backend delays.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds borgesd and runs all workloads")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bin, err := buildBorgesd(ctx, root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	measured := make(map[string]bool) // by the end-to-end runs
	for _, trace := range []bool{false, true} {
		selected := workloads
		if trace {
			selected = workloads[1:2]
		}
		out := filepath.Join(t.TempDir(), "BENCH_result.json")
		var log, stdout bytes.Buffer
		cfg := config{
			root: root, seed: 1, seconds: time.Second, trace: trace, scale: 0.02,
			borgesd: bin, out: out, traceOut: filepath.Join(filepath.Dir(out), "BENCH_trace.json"), log: &log,
		}
		results, err := run(ctx, cfg, selected, &stdout)
		if err != nil {
			t.Fatalf("trace=%v: %v\n%s", trace, err, log.String())
		}
		want := sp.EndToEnd
		if trace {
			want = sp.PerLayer
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if len(lines) != len(selected) {
			t.Fatalf("trace=%v: %d summary lines for %d workloads", trace, len(lines), len(selected))
		}
		for i, r := range results {
			if r.Failed != 0 {
				t.Errorf("trace=%v %s: %d failed of %d, errors %v", trace, r.Workload, r.Failed, r.Attempted, r.Errors)
			}
			if !trace {
				for name := range r.Metrics {
					measured[name] = true
				}
			}
			var line struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
				t.Fatalf("summary line %q: %v", lines[i], err)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("trace=%v %s: %d metrics in the summary, want %d", trace, r.Workload, len(line.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("trace=%v %s: metric %s = %+v, want unit %s", trace, r.Workload, m.Name, got, m.Unit)
				}
			}
		}
		if _, err := os.Stat(out); err != nil {
			t.Errorf("no result file: %v", err)
		}
		if trace {
			checkSpansNest(t, cfg.traceOut, len(selected))
		}
	}
	for _, m := range sp.PerLayer {
		if !strings.Contains(m.Name, ".") && !measured[m.Name] {
			t.Errorf("no end-to-end run measured %s", m.Name)
		}
	}
}

func checkSpansNest(t *testing.T, path string, traced int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct {
			Spans []span `json:"spans"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != traced {
		t.Fatalf("trace holds %d workloads, want %d", len(f.Workloads), traced)
	}
	for _, w := range f.Workloads {
		checkNesting(t, w.Spans)
	}
}

func checkNesting(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %s has no parent %d", s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End || s.Trace != p.Trace {
			t.Fatalf("span %s [%d, %d] not inside parent %s [%d, %d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
}
