// Command bench is the Borges benchmark: four workloads that time what
// the two kinds of Borges users wait for — operators rebuilding the
// AS-to-Organization mapping (pipeline-paper, pipeline-io) and clients
// resolving ASNs against borgesd (serve-point, serve-mixed) — and check
// every output they time. See README.md for the workloads, the metrics
// and the first baseline.
//
//	bash bench/run.sh -seed 1                          # all workloads
//	bash bench/run.sh --workload serve-point --seed 7 --seconds 20 --trace 0
//	bash bench/run.sh -trace -seed 1                   # per-layer run
//	bash bench/run.sh compare runsA/ runsB/
//
// The last line of standard output is one JSON object per workload
// run: {"correct", "attempted", "failed", "metrics"}, with the
// end-to-end metrics of BENCHMARK.json (or, with -trace, its per-layer
// metrics). Every metric measured, with its sample count, goes to
// bench/BENCH_result.json; a traced run also writes its spans to
// bench/BENCH_trace.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name    string
	scale   float64 // synthetic corpus scale (1.0 = the paper's 117,431 ASNs)
	backend backend
	daemon  bool // drives a borgesd subprocess
	run     func(ctx context.Context, e *env, r *result) error
}

var workloads = []workload{
	{name: "pipeline-paper", scale: 1.0, run: runPipeline},
	{name: "pipeline-io", scale: 0.1, run: runPipeline,
		backend: backend{webDelay: 5 * time.Millisecond, llmDelay: 20 * time.Millisecond}},
	{name: "serve-point", scale: 1.0, daemon: true, run: runServePoint},
	{name: "serve-mixed", scale: 1.0, daemon: true, run: runServeMixed},
}

// A run repeats its set-up at least setupReps times and for at least
// setupMin; setup_s is the median.
const (
	setupReps = 3
	setupMin  = time.Second
)

// config is one invocation's settings.
type config struct {
	root     string        // repository checkout
	seed     int64         // input seed
	seconds  time.Duration // measured time per workload
	trace    bool          // per-layer run instead of end-to-end
	scale    float64       // overrides every workload's scale when > 0 (smoke test)
	borgesd  string        // prebuilt borgesd (smoke test); built from root when empty
	out      string        // result file
	traceOut string        // span file (-trace)
	log      io.Writer
}

// env is what a workload runs with.
type env struct {
	config
	wl      workload
	work    string // scratch directory, removed after the run
	borgesd string
}

func (e *env) scaleOf() float64 {
	if e.scale > 0 {
		return e.scale
	}
	return e.wl.scale
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "bench: %s: "+format+"\n", append([]any{e.wl.name}, args...)...)
}

// metricValue is one measured metric. Timings carry their sample
// count and the highest percentile with at least ten samples beyond it.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better,omitempty"`
	N       int     `json:"n,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	// Samples keeps small samples (builds, reloads, cold starts) whole.
	Samples []float64 `json:"samples,omitempty"`
}

// maxKeptSamples is the largest sample a result file keeps whole.
const maxKeptSamples = 32

// result is one workload run.
type result struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	ElapsedS  float64                `json:"elapsed_s"`
	Metrics   map[string]metricValue `json:"metrics"`
	Errors    []string               `json:"errors,omitempty"`

	spans []span
}

func newResult(name string) *result {
	return &result{Workload: name, Metrics: make(map[string]metricValue)}
}

// set records a single-valued metric.
func (r *result) set(name, unit, better string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit, Better: better}
}

// timing records the median of samples with their count and tail.
func (r *result) timing(name, unit string, samples []float64) {
	if len(samples) == 0 {
		r.fail("no samples for %s", name)
		return
	}
	m := metricValue{Value: median(samples), Unit: unit, Better: "lower", N: len(samples)}
	if p, v, ok := tail(sortedCopy(samples)); ok {
		m.TailPct, m.Tail = p, v
	}
	if len(samples) <= maxKeptSamples {
		m.Samples = samples
	}
	r.Metrics[name] = m
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted verification, failing it on err.
func (r *result) check(err error) {
	r.Attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

// specMetric and spec mirror BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// summary is the one-line result a workload run prints last: the
// metrics BENCHMARK.json lists for the run's mode, nothing else.
func summary(r *result, want []specMetric) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, make(map[string]mv, len(want))}
	var missing []string
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out.Metrics[m.Name] = mv{v.Value, v.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s did not measure %v", r.Workload, missing)
	}
	return json.Marshal(out)
}

// checkDeclared requires every metric r recorded to be listed in
// BENCHMARK.json, end-to-end or per-layer, with the unit it was
// measured in.
func checkDeclared(r *result, s *spec) error {
	units := make(map[string]string)
	for _, m := range append(slices.Clone(s.EndToEnd), s.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, name := range sortedKeys(r.Metrics) {
		if u, ok := units[name]; !ok || u != r.Metrics[name].Unit {
			return fmt.Errorf("%s recorded %s in %q; BENCHMARK.json lists it in %q", r.Workload, name, r.Metrics[name].Unit, u)
		}
	}
	return nil
}

// normalizeArgs rewrites "-trace 0" / "--trace 1" as "-trace=false" /
// "-trace=true": the flag package takes a boolean's value only after
// "=", and the benchmark is driven with the value as its own argument.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "false":
				out = append(out, "-trace=false")
				i++
				continue
			case "1", "true":
				out = append(out, "-trace=true")
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// findRoot returns dir or its parent, whichever holds BENCHMARK.json.
func findRoot(dir string) (string, error) {
	for _, d := range []string{dir, filepath.Dir(dir)} {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d, nil
		}
	}
	return "", fmt.Errorf("no BENCHMARK.json in %s or its parent (use -root)", dir)
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	root := fs.String("root", "", "repository checkout (default: the working directory or its parent)")
	name := fs.String("workload", "all", "workload to run, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	secs := fs.Float64("seconds", 20, "measured seconds per workload")
	fs.BoolVar(&cfg.trace, "trace", false, "per-layer run: trace each layer and report per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "result file (default <root>/bench/BENCH_result.json)")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	cfg.log = stderr
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	if *root == "" {
		wd, err := os.Getwd()
		if err == nil {
			*root, err = findRoot(wd)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	cfg.root = *root
	if fs.Arg(0) == "compare" {
		return runCompare(cfg.root, fs.Args()[1:], stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.root, "bench", "BENCH_result.json")
	}
	cfg.traceOut = filepath.Join(filepath.Dir(cfg.out), "BENCH_trace.json")

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, err := run(ctx, cfg, selected, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, r := range results {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// run executes the selected workloads in one process, prints each
// one's summary line and writes the result (and trace) files.
func run(ctx context.Context, cfg config, selected []workload, stdout io.Writer) ([]*result, error) {
	sp, err := readSpec(cfg.root)
	if err != nil {
		return nil, err
	}
	want := sp.EndToEnd
	if cfg.trace {
		want = sp.PerLayer
	}
	scratch := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	bin := cfg.borgesd
	if needsDaemon := cfg.trace || slices.ContainsFunc(selected, func(w workload) bool { return w.daemon }); bin == "" && needsDaemon {
		if bin, err = buildBorgesd(ctx, cfg.root, work); err != nil {
			return nil, err
		}
	}

	var results []*result
	for _, w := range selected {
		e := &env{config: cfg, wl: w, borgesd: bin, work: filepath.Join(work, w.name)}
		if err := os.MkdirAll(e.work, 0o755); err != nil {
			return nil, err
		}
		r := runOne(ctx, e)
		results = append(results, r)
		if err := checkDeclared(r, sp); err != nil {
			return results, err
		}
		line, err := summary(r, want)
		if err != nil {
			return results, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if err := os.RemoveAll(e.work); err != nil {
			return results, err
		}
	}
	if err := writeResults(cfg, results); err != nil {
		return results, err
	}
	if cfg.trace {
		return results, writeTrace(cfg.traceOut, results)
	}
	return results, nil
}

// runOne runs one workload, end to end or traced, and prints its
// metrics in a human-readable table on the log.
func runOne(ctx context.Context, e *env) *result {
	r := newResult(e.wl.name)
	debug.FreeOSMemory()
	start := time.Now()
	var err error
	if e.trace {
		err = runLedger(ctx, e, r)
	} else {
		err = e.wl.run(ctx, e, r)
	}
	r.ElapsedS = time.Since(start).Seconds()
	if err != nil {
		r.fail("%v", err)
	}
	r.set("fail_ratio", "ratio", "lower", float64(r.Failed)/float64(max(r.Attempted, 1)))
	r.Correct = r.Failed == 0 && ctx.Err() == nil
	printResult(e.log, r)
	return r
}

func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "bench: %s: %d attempted, %d failed, %.1f s\n", r.Workload, r.Attempted, r.Failed, r.ElapsedS)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-32s %14.6g %-8s", name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.TailPct > 0 {
			line += fmt.Sprintf(" p%g=%.6g", m.TailPct, m.Tail)
		}
		fmt.Fprintln(w, line)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// writeResults writes every measured metric of the run.
func writeResults(cfg config, results []*result) error {
	b, err := json.MarshalIndent(struct {
		Seed      int64     `json:"seed"`
		Seconds   float64   `json:"seconds"`
		Trace     bool      `json:"trace"`
		GoVersion string    `json:"go_version"`
		NumCPU    int       `json:"num_cpu"`
		Workloads []*result `json:"workloads"`
	}{cfg.seed, cfg.seconds.Seconds(), cfg.trace, runtime.Version(), runtime.NumCPU(), results}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(cfg.out), 0o755); err != nil {
		return err
	}
	return os.WriteFile(cfg.out, append(b, '\n'), 0o644)
}
