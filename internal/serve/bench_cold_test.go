// Cold-start and incremental-reload benchmarks for the binary
// snapshot format: the JSONL rebuild path (parse, union-find replay,
// tokenize, render) against the snapbin load path (a few large reads
// plus slicing), and a small delta patch against either full path.
//
//	go test -run=NONE -bench='SnapshotColdStart|DeltaReload' -benchtime=1x ./internal/serve/
package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/mapdiff"
)

// BenchmarkSnapshotColdStartJSONL measures the legacy cold start:
// SnapshotFileSource on a mapping JSONL file, which re-parses,
// re-consolidates, re-tokenizes, and re-renders on every load.
func BenchmarkSnapshotColdStartJSONL(b *testing.B) {
	for _, n := range consolidationScales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := benchBuilder(n).Build(benchNamer)
			path := filepath.Join(b.TempDir(), "mapping.jsonl")
			f, err := os.Create(path)
			if err != nil {
				b.Fatal(err)
			}
			if err := cluster.WriteJSONL(f, m); err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
			source := SnapshotFileSource(path)
			b.ReportAllocs()
			b.ResetTimer()
			var snap *Snapshot
			for i := 0; i < b.N; i++ {
				if snap, err = source(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			recordBench(b, map[string]float64{
				"networks": float64(n),
				"orgs":     float64(snap.Stats().Orgs),
			})
		})
	}
}

// BenchmarkSnapshotColdStartBinary measures the same source on a
// binary artifact of the same snapshot: decode, verify hash, restore.
func BenchmarkSnapshotColdStartBinary(b *testing.B) {
	for _, n := range consolidationScales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := benchBuilder(n).Build(benchNamer)
			snap, err := NewSnapshot(m, "bench")
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "snapshot.bin")
			if _, err := WriteSnapshotFile(path, snap); err != nil {
				b.Fatal(err)
			}
			source := SnapshotFileSource(path)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if snap, err = source(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			recordBench(b, map[string]float64{
				"networks": float64(n),
				"orgs":     float64(snap.Stats().Orgs),
			})
		})
	}
}

// BenchmarkDeltaReload measures patching a serving snapshot with a
// delta touching one organization (well under 1% of clusters at every
// scale) — the incremental alternative to the full rebuild that
// BenchmarkSnapshotColdStartJSONL prices.
func BenchmarkDeltaReload(b *testing.B) {
	for _, n := range consolidationScales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := benchBuilder(n).Build(benchNamer)
			base, err := NewSnapshot(m, "bench")
			if err != nil {
				b.Fatal(err)
			}
			// Rename one mid-sized organization: one removal plus one
			// addition with identical membership and a new name.
			victim := m.Clusters[len(m.Clusters)/2]
			renamed := victim
			renamed.Name = victim.Name + " (renamed)"
			renamed.ASNs = append([]asnum.ASN(nil), victim.ASNs...)
			d := &mapdiff.Delta{
				Removed: [][]asnum.ASN{victim.ASNs},
				Added:   []cluster.Cluster{renamed},
			}
			b.ReportAllocs()
			b.ResetTimer()
			var snap *Snapshot
			for i := 0; i < b.N; i++ {
				if snap, err = base.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			recordBench(b, map[string]float64{
				"networks":         float64(n),
				"orgs":             float64(snap.Stats().Orgs),
				"touched_orgs":     1,
				"touched_fraction": 1 / float64(len(m.Clusters)),
			})
		})
	}
}
