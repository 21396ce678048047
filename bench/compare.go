package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// side holds, per workload and metric, one value per result file.
type side map[[2]string][]float64

// readSide loads every result file (*.json holding "workloads") in dir.
func readSide(dir string, better map[string]string) (side, int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, 0, err
	}
	out := make(side)
	files := 0
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, 0, err
		}
		var f struct {
			Workloads []*result `json:"workloads"`
		}
		if json.Unmarshal(b, &f) != nil || len(f.Workloads) == 0 {
			continue
		}
		files++
		for _, r := range f.Workloads {
			for name, m := range r.Metrics {
				k := [2]string{r.Workload, name}
				out[k] = append(out[k], m.Value)
				better[name] = m.Better
			}
		}
	}
	return out, files, nil
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	if q3 == q1 {
		return 0
	}
	return (q3 - q1) / math.Abs(median(values))
}

// verdict judges side b against side a under bound: "unresolved" when
// checkSpread is set and either side's spread exceeds the bound, else
// "worse" when b's median is worse than a's by more than the bound,
// else "within".
func verdict(a, b []float64, bound float64, better string, checkSpread bool) string {
	if checkSpread && (spread(a) > bound || spread(b) > bound) {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	worse := false
	switch {
	case ma == 0:
		worse = better == "lower" && mb > 0 || better == "higher" && mb < 0
	case better == "higher":
		worse = mb < ma*(1-bound)
	default:
		worse = mb > ma*(1+bound)
	}
	if worse {
		return "worse"
	}
	return "within"
}

// runCompare prints, for every (workload, metric) both directories
// measured, each side's median and quartiles, and for BENCHMARK.json's
// end-to-end metrics the verdict under their bound; every other metric
// is shown without one. It exits 1 when any verdict is worse or
// unresolved.
func runCompare(root string, dirs []string, stdout, stderr io.Writer) int {
	if len(dirs) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare <dirA> <dirB>")
		return 2
	}
	sp, err := readSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	bounds := make(map[string]float64)
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	better := make(map[string]string)
	var sides [2]side
	for i, d := range dirs {
		s, files, err := readSide(d, better)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if files < 2 {
			fmt.Fprintf(stderr, "bench: %s holds %d result files; compare needs at least 2 per side\n", d, files)
			return 2
		}
		sides[i] = s
	}
	var keys [][2]string
	for k := range sides[0] {
		if _, ok := sides[1][k]; ok {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b [2]string) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	fmt.Fprintf(stdout, "%-15s %-32s %-36s %-36s %-7s %s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "bound", "verdict")
	status := 0
	for _, k := range keys {
		a, b := sides[0][k], sides[1][k]
		v, boundText := "-", "-"
		if bound, ok := bounds[k[1]]; ok {
			// Set-up repeats only a few times per run, so like the
			// benchmark's acceptance rule, its spread is not judged.
			v = verdict(a, b, bound, better[k[1]], k[1] != "setup_s")
			boundText = fmt.Sprintf("%.0f%%", bound*100)
			if v != "within" {
				status = 1
			}
		}
		fmt.Fprintf(stdout, "%-15s %-32s %-36s %-36s %-7s %s\n", k[0], k[1], describe(a), describe(b), boundText, v)
	}
	return status
}

func describe(values []float64) string {
	q1, q3 := quartiles(values)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", median(values), q1, q3, len(values))
}
