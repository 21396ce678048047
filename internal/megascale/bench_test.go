// Mega-scale memory benchmarks: peak RSS and wall-clock for the
// streaming corpus generator, consolidation, snapshot build, and
// binary-artifact cold start, at
// n=131072 and n=1M ASNs. Each benchmark records a
// machine-readable observation that TestMain serializes to
// BENCH_megascale.json, the committed artifact backing the bounded-
// memory claims in DESIGN.md.
//
//	go test -run=NONE -bench=Mega -benchtime=1x ./internal/megascale/
package megascale

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/memprobe"
	"github.com/nu-aqualab/borges/internal/serve"
	"github.com/nu-aqualab/borges/internal/synth"
)

// benchRecord is one serialized benchmark observation.
type benchRecord struct {
	Name    string             `json:"name"`
	N       int                `json:"n"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

var (
	benchRecMu sync.Mutex
	benchRecs  []benchRecord
)

// recordBench snapshots a finished benchmark's timing plus extra
// metrics for the BENCH_megascale.json artifact. A repeated name keeps
// only the invocation with the most iterations.
func recordBench(b *testing.B, metrics map[string]float64) {
	benchRecMu.Lock()
	defer benchRecMu.Unlock()
	r := benchRecord{Name: b.Name(), N: b.N, Metrics: metrics}
	if b.N > 0 {
		r.NsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	}
	for i := range benchRecs {
		if benchRecs[i].Name == r.Name {
			if r.N >= benchRecs[i].N {
				benchRecs[i] = r
			}
			return
		}
	}
	benchRecs = append(benchRecs, r)
}

func TestMain(m *testing.M) {
	code := m.Run()
	benchRecMu.Lock()
	recs := benchRecs
	benchRecMu.Unlock()
	if len(recs) > 0 {
		sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
		blob, err := json.MarshalIndent(struct {
			Benchmarks []benchRecord `json:"benchmarks"`
		}{recs}, "", "  ")
		if err == nil {
			blob = append(blob, '\n')
			err = os.WriteFile("BENCH_megascale.json", blob, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "writing BENCH_megascale.json:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

// asnsPerUnitScale is how many WHOIS ASNs synth emits at Scale 1.0
// (the calibrated corpus of scaled()); Scale n/asnsPerUnitScale
// targets an n-ASN universe.
const asnsPerUnitScale = 117431

// megaScales are the target universe sizes. The larger one is the
// acceptance scale: one million ASNs.
var megaScales = []int{131072, 1 << 20}

func streamCfg(n int) synth.Config {
	return synth.Config{Seed: 11, Scale: float64(n) / asnsPerUnitScale}
}

// measurePeak runs f after trimming the process footprint
// (FreeOSMemory) and resetting the kernel RSS high-water mark, then
// reports the phase's peak RSS. reset reports whether per-phase
// isolation took effect; when it is false the value is the
// process-lifetime peak (read-only /proc or a pre-4.0 kernel) and ok
// is false where VmHWM is unavailable entirely (non-Linux).
func measurePeak(f func()) (rss int64, ok, reset bool) {
	debug.FreeOSMemory()
	reset = memprobe.ResetPeak()
	f()
	rss, ok = memprobe.PeakRSS()
	return rss, ok, reset
}

func rssMetrics(m map[string]float64, rss int64, ok, reset bool) map[string]float64 {
	if ok {
		m["peak_rss_bytes"] = float64(rss)
		m["peak_rss_isolated"] = 0
		if reset {
			m["peak_rss_isolated"] = 1
		}
	}
	return m
}

func benchNamer(members []asnum.ASN) string {
	return fmt.Sprintf("Org #%d", members[0])
}

// addUniverse registers ASNs 1..n.
func addUniverse(b *cluster.Builder, n int) {
	for a := 1; a <= n; a++ {
		b.AddUniverse(asnum.ASN(a))
	}
}

// addMegaSets feeds 4n seeded sibling sets of 2–7 members drawn from
// 64-ASN blocks (the serve bench workload shape: heavy overlap
// collapses each block into one organization, so union-find cost
// dominates). Each set gets a fresh backing slice, as a real ingest
// hands the builder; the builder merges the set and keeps none of it,
// so every set is garbage once Add returns.
func addMegaSets(b *cluster.Builder, n int) {
	const blockSize = 64
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4*n; i++ {
		size := rng.Intn(6) + 2
		set := cluster.SiblingSet{Source: cluster.Feature(i % cluster.NumFeatures)}
		base := rng.Intn(n) + 1
		blockLo := base - (base-1)%blockSize
		blockHi := min(blockLo+blockSize-1, n)
		for j := 0; j < size; j++ {
			a := base + rng.Intn(17) - 8
			if a < blockLo {
				a = blockLo
			}
			if a > blockHi {
				a = blockHi
			}
			set.ASNs = append(set.ASNs, asnum.ASN(a))
		}
		b.Add(set)
	}
}

// BenchmarkMegaGenerateStream drives the streaming generator and
// discards each chunk, the constant-memory producer path: peak RSS
// tracks the chunk size, not the corpus size.
func BenchmarkMegaGenerateStream(b *testing.B) {
	for _, n := range megaScales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var asns, chunks int
			rss, ok, reset := measurePeak(func() {
				for i := 0; i < b.N; i++ {
					asns, chunks = 0, 0
					err := synth.GenerateStream(streamCfg(n), 512, func(ds *synth.Dataset) error {
						chunks++
						asns += ds.WHOIS.NumASNs()
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			recordBench(b, rssMetrics(map[string]float64{
				"target_asns": float64(n),
				"whois_asns":  float64(asns),
				"chunks":      float64(chunks),
			}, rss, ok, reset))
		})
	}
}

// BenchmarkMegaGenerateBuffered is the contrast: Generate assembles
// the whole corpus in memory, so peak RSS grows linearly with n.
func BenchmarkMegaGenerateBuffered(b *testing.B) {
	for _, n := range megaScales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ds *synth.Dataset
			rss, ok, reset := measurePeak(func() {
				for i := 0; i < b.N; i++ {
					var err error
					ds, err = synth.Generate(streamCfg(n))
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			recordBench(b, rssMetrics(map[string]float64{
				"target_asns": float64(n),
				"whois_asns":  float64(ds.WHOIS.NumASNs()),
			}, rss, ok, reset))
			runtime.KeepAlive(ds)
		})
	}
}

// BenchmarkMegaConsolidateInMemory ingests 4n sibling sets into the
// builder and consolidates. The builder merges each set as it arrives
// and keeps none, so peak RSS follows the networks, not the sets.
func BenchmarkMegaConsolidateInMemory(b *testing.B) {
	for _, n := range megaScales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var m *cluster.Mapping
			rss, ok, reset := measurePeak(func() {
				for i := 0; i < b.N; i++ {
					builder := cluster.NewBuilder()
					addUniverse(builder, n)
					addMegaSets(builder, n)
					m = builder.Build(benchNamer)
				}
			})
			b.StopTimer()
			recordBench(b, rssMetrics(map[string]float64{
				"networks": float64(n),
				"sets":     float64(4 * n),
				"orgs":     float64(m.NumOrgs()),
			}, rss, ok, reset))
		})
	}
}

// megaMapping consolidates the standard workload once per scale for
// the snapshot-build and cold-start benchmarks.
func megaMapping(b *testing.B, n int) *cluster.Mapping {
	b.Helper()
	builder := cluster.NewBuilder()
	addUniverse(builder, n)
	addMegaSets(builder, n)
	return builder.Build(benchNamer)
}

// BenchmarkMegaSnapshotBuild measures the snapshot build
// (tokenization, θ, histogram) over the mega mapping.
func BenchmarkMegaSnapshotBuild(b *testing.B) {
	for _, n := range megaScales {
		m := megaMapping(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var snap *serve.Snapshot
			rss, ok, reset := measurePeak(func() {
				for i := 0; i < b.N; i++ {
					var err error
					snap, err = serve.NewSnapshot(m, "megascale")
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			recordBench(b, rssMetrics(map[string]float64{
				"networks": float64(n),
				"orgs":     float64(snap.Stats().Orgs),
			}, rss, ok, reset))
		})
	}
}

// BenchmarkMegaColdStart times the binary-artifact load, which checks
// the org-bodies and AS-tails sections against renders of the clusters
// and keeps neither. The heap_delta_bytes metric is the retained
// Go-heap growth from one load, measured across forced GCs.
func BenchmarkMegaColdStart(b *testing.B) {
	for _, n := range megaScales {
		m := megaMapping(b, n)
		snap, err := serve.NewSnapshot(m, "megascale")
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), "snap.borges")
		if _, err := serve.WriteSnapshotFile(path, snap); err != nil {
			b.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		snap, m = nil, nil
		b.Run(fmt.Sprintf("buffered/n=%d", n), func(b *testing.B) {
			var loaded *serve.Snapshot
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if loaded, err = serve.LoadSnapshotFile(path); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			recordBench(b, map[string]float64{
				"networks":         float64(n),
				"artifact_bytes":   float64(fi.Size()),
				"heap_delta_bytes": float64(after.HeapAlloc) - float64(before.HeapAlloc),
			})
			runtime.KeepAlive(loaded)
		})
	}
}
