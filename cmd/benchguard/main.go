// Command benchguard compares two sets of benchmark JSON artifacts (the
// BENCH_*.json files the bench suites emit) and fails when a selected
// cell's ns/op regresses beyond a threshold. Each side is one or more
// runs of the same benchmark command: CI runs it on the commit's first
// parent and on the commit, interleaved, in one job on one machine, and
// compares the median ns/op of each cell per side, so that neither
// another machine's speed nor one noisy run decides the verdict.
//
// Usage:
//
//	benchguard -baseline 'runs/parent-*.json' \
//	           -current 'runs/change-*.json' \
//	           -match 'ColdStart|Lookup' -max-regress 20
//
// -baseline and -current are file paths or glob patterns.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"slices"
)

type benchFile struct {
	Benchmarks []benchRecord `json:"benchmarks"`
}

type benchRecord struct {
	Name    string  `json:"name"`
	N       int     `json:"n"`
	NsPerOp float64 `json:"ns_per_op"`
}

// load reads every run the pattern names and returns each cell's
// median ns/op over the runs that recorded it, and the number of runs.
func load(pattern string) (map[string]float64, int, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, 0, err
	}
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("%s: no such file", pattern)
	}
	samples := map[string][]float64{}
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		var f benchFile
		if err := json.Unmarshal(blob, &f); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.Benchmarks {
			samples[r.Name] = append(samples[r.Name], r.NsPerOp)
		}
	}
	medians := make(map[string]float64, len(samples))
	for name, v := range samples {
		slices.Sort(v)
		medians[name] = (v[(len(v)-1)/2] + v[len(v)/2]) / 2
	}
	return medians, len(paths), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")

	baselinePath := flag.String("baseline", "", "baseline BENCH json runs (path or glob)")
	currentPath := flag.String("current", "", "current BENCH json runs (path or glob)")
	match := flag.String("match", ".", "regexp selecting benchmark names to compare")
	maxRegress := flag.Float64("max-regress", 20, "maximum allowed ns/op regression of the medians, percent")
	flag.Parse()

	if *baselinePath == "" || *currentPath == "" {
		log.Fatal("-baseline and -current are required")
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		log.Fatalf("-match: %v", err)
	}
	baseline, baseRuns, err := load(*baselinePath)
	if err != nil {
		log.Fatal(err)
	}
	current, curRuns, err := load(*currentPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchguard: medians of %d baseline and %d current runs\n", baseRuns, curRuns)

	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	slices.Sort(names)
	compared, failed := 0, 0
	for _, name := range names {
		base := baseline[name]
		if !re.MatchString(name) || base <= 0 {
			continue
		}
		cur, ok := current[name]
		if !ok {
			// A cell missing from the current runs means the benchmark
			// was renamed or dropped; that must be deliberate, not a
			// silent pass.
			fmt.Printf("MISSING  %-55s baseline %.0f ns/op, absent from current\n", name, base)
			failed++
			continue
		}
		compared++
		delta := (cur - base) / base * 100
		status := "ok"
		if delta > *maxRegress {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%-8s %-55s %12.0f -> %12.0f ns/op (%+.1f%%)\n", status, name, base, cur, delta)
	}
	if compared == 0 && failed == 0 {
		log.Fatalf("no baseline cells matched %q — guard is vacuous", *match)
	}
	if failed > 0 {
		log.Fatalf("%d of %d compared cells regressed beyond %.0f%% (or went missing)", failed, compared, *maxRegress)
	}
	fmt.Printf("benchguard: %d cells within %.0f%% of baseline\n", compared, *maxRegress)
}
