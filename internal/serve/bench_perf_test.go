// Benchmarks for the sharded consolidation, the parallel snapshot
// build, and the zero-allocation serving hot path. Besides the
// standard -bench output, each records a machine-readable observation
// that TestMain serializes to BENCH_serve.json, so CI smoke runs leave
// a comparable artifact.
//
//	go test -run=NONE -bench='Consolidate|SnapshotBuild|LookupAllocs' -benchtime=1x ./internal/serve/
package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
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
// metrics for the BENCH_serve.json artifact. The testing package runs
// each benchmark once with b.N=1 to probe before the measured run, so
// a repeated name keeps only the invocation with the most iterations.
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
			err = os.WriteFile("BENCH_serve.json", blob, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "writing BENCH_serve.json:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

// consolidationScales are the synthetic universe sizes the
// consolidation and snapshot-build benchmarks sweep. The largest is
// the acceptance scale.
var consolidationScales = []int{2048, 8192, 32768}

// benchBuilder generates a seeded consolidation workload over n
// networks: 4n sibling sets of 2–7 members drawn from 64-network
// blocks, so heavily overlapping sets collapse each block into one
// organization (≈ n/64 orgs) — union-find cost dominates, and the
// dense-DSU advantage is visible even on one core.
func benchBuilder(n int) *cluster.Builder {
	const blockSize = 64
	rng := rand.New(rand.NewSource(42))
	b := cluster.NewBuilder()
	for a := 1; a <= n; a++ {
		b.AddUniverse(asnum.ASN(a))
	}
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
	return b
}

func benchNamer(members []asnum.ASN) string {
	return fmt.Sprintf("Org #%d", members[0])
}

// BenchmarkConsolidateSeq is the baseline: the map-based union-find
// replay behind Builder.Build.
func BenchmarkConsolidateSeq(b *testing.B) {
	for _, n := range consolidationScales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			builder := benchBuilder(n)
			b.ReportAllocs()
			b.ResetTimer()
			var m *cluster.Mapping
			for i := 0; i < b.N; i++ {
				m = builder.Build(benchNamer)
			}
			b.StopTimer()
			recordBench(b, map[string]float64{
				"networks": float64(n),
				"sets":     float64(4 * n),
				"orgs":     float64(m.NumOrgs()),
			})
		})
	}
}

// BenchmarkConsolidateSharded is the tentpole path: per-shard dense
// DSUs over contiguous set chunks, frontier-merged into a global
// dense DSU. Byte-identical output to the sequential build (see
// TestShardedEquivalence*), at a fraction of the cost.
func BenchmarkConsolidateSharded(b *testing.B) {
	for _, n := range consolidationScales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			builder := benchBuilder(n)
			b.ReportAllocs()
			b.ResetTimer()
			var m *cluster.Mapping
			for i := 0; i < b.N; i++ {
				m = builder.BuildSharded(benchNamer, 0)
			}
			b.StopTimer()
			recordBench(b, map[string]float64{
				"networks": float64(n),
				"sets":     float64(4 * n),
				"orgs":     float64(m.NumOrgs()),
				"workers":  float64(runtime.GOMAXPROCS(0)),
			})
		})
	}
}

// BenchmarkSnapshotBuild contrasts the single-worker snapshot build
// (tokenization, θ, histogram in one goroutine) with
// the fanned-out build. On a single-core runner the two are expected
// to tie; the parallel speedup shows on multi-core CI.
func BenchmarkSnapshotBuild(b *testing.B) {
	now := time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC)
	for _, n := range consolidationScales {
		m := benchBuilder(n).BuildSharded(benchNamer, 0)
		for _, mode := range []struct {
			name    string
			workers int
		}{
			{"seq", 1},
			{"par", runtime.GOMAXPROCS(0)},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
				b.ReportAllocs()
				var snap *Snapshot
				for i := 0; i < b.N; i++ {
					var err error
					snap, err = newSnapshotWorkers(m, "bench", Health{}, now, mode.workers)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				recordBench(b, map[string]float64{
					"networks": float64(n),
					"orgs":     float64(snap.Stats().Orgs),
					"workers":  float64(mode.workers),
				})
			})
		}
	}
}

// BenchmarkLookupAllocs is the zero-allocation guarantee in benchmark
// form: an ASN point lookup rendering the full /v1/as response of a
// 64-network organization must report 0 allocs/op.
func BenchmarkLookupAllocs(b *testing.B) {
	snap, err := newSnapshotWorkers(benchBuilder(8192).BuildSharded(benchNamer, 0),
		"bench", Health{}, time.Now(), runtime.GOMAXPROCS(0))
	if err != nil {
		b.Fatal(err)
	}
	// Size the reused buffer for the largest response, the state a
	// pooled server buffer converges to after a few requests.
	var buf []byte
	for i := range snap.NumOrgs() {
		c := snap.OrgAt(i)
		body, _ := snap.AppendASBody(nil, c.ASNs[len(c.ASNs)-1])
		buf = slices.Grow(buf, len(body))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		body, ok := snap.AppendASBody(buf[:0], 4242)
		if !ok || len(body) == 0 {
			b.Fatal("empty AS body")
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := asnum.ASN(i%8192 + 1)
		body, ok := snap.AppendASBody(buf[:0], a)
		if !ok || len(body) == 0 {
			b.Fatalf("empty AS body for AS%d", a)
		}
	}
	b.StopTimer()
	if allocs != 0 {
		b.Fatalf("lookup hot path allocates %v times per op, want 0", allocs)
	}
	recordBench(b, map[string]float64{"allocs_per_op": allocs})
}
