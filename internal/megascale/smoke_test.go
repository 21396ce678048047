package megascale

import (
	"testing"

	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/synth"
)

// smokeRSSCeiling is the hard peak-RSS bound for the scaled-down
// streaming pipeline below. The streaming generator and a builder
// that keeps no set stay well under it, while the buffered
// equivalent (full Generate, and a builder holding every set until
// Build) peaked at ~240 MiB under the race detector — so 128 MiB
// leaves headroom against allocator noise yet still trips on a
// regression back to O(corpus) buffering.
const smokeRSSCeiling = 128 << 20

// smokeN is the scaled-down universe: big enough that an accidental
// full-corpus buffer shows up in RSS, small enough for the race
// detector on a one-core CI runner.
const smokeN = 32768

// TestStreamingBoundedRSS is the megascale-smoke assertion: streaming
// generation (chunks discarded as they are yielded) followed by a
// consolidation that merges each of 4n sets on arrival and keeps none
// must stay under a hard RSS ceiling. The full-scale numbers live in
// BENCH_megascale.json; this is the cheap guard that the bounded-memory
// property survives day-to-day changes.
func TestStreamingBoundedRSS(t *testing.T) {
	if testing.Short() {
		t.Skip("mega-scale smoke skipped in -short mode")
	}
	rss, ok, reset := measurePeak(func() {
		err := synth.GenerateStream(streamCfg(smokeN), 256, func(*synth.Dataset) error {
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		builder := cluster.NewBuilder()
		addUniverse(builder, smokeN)
		addMegaSets(builder, smokeN)
		if m := builder.Build(benchNamer); m.NumOrgs() == 0 {
			t.Fatal("consolidation produced no organizations")
		}
	})
	if !ok {
		t.Skip("peak RSS unavailable on this platform")
	}
	if !reset {
		// Read-only /proc: the value below is the process-lifetime
		// peak, which still bounds this phase from above.
		t.Log("clear_refs unavailable; asserting on process-lifetime peak RSS")
	}
	t.Logf("peak RSS %d bytes (%.1f MiB), ceiling %d", rss, float64(rss)/(1<<20), int64(smokeRSSCeiling))
	if rss > smokeRSSCeiling {
		t.Fatalf("streaming pipeline peak RSS %d bytes exceeds hard ceiling %d", rss, int64(smokeRSSCeiling))
	}
}
