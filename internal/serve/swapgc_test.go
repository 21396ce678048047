package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"time"
	"weak"

	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/mapdiff"
)

// forcedGCs reads the process's count of completed garbage collection
// cycles that the program forced (runtime.GC) rather than the pacer
// started.
func forcedGCs() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// waitForCollection polls read until it reports more than before and
// fails the test if that takes longer than the deadline.
func waitForCollection(t *testing.T, event string, before uint64, read func() uint64) {
	t.Helper()
	const limit = 10 * time.Second
	deadline := time.Now().Add(limit)
	for read() <= before {
		if time.Now().After(deadline) {
			t.Fatalf("%s: no forced collection within %v (count stayed %d)", event, limit, before)
		}
		time.Sleep(time.Millisecond)
	}
}

// searchedThenDropped makes a snapshot, searches it by token and by
// prefix, and keeps only a weak pointer to it.
//
//go:noinline
func searchedThenDropped(mk func() *Snapshot) weak.Pointer[Snapshot] {
	s := mk()
	s.Search("org", 10)
	s.SearchBrownout("org", 10)
	return weak.Make(s)
}

// TestRetiredSnapshotCollected: a snapshot that served searches is
// freed by the first collection after it is dropped, however it was
// made. The runtime lists every sync.Pool used since the last
// collection and marks that list once more in the next one, so a
// search pool inside a snapshot would keep it through the collection a
// swap starts to free it, and the heap goal would stay at twice two
// snapshots.
func TestRetiredSnapshotCollected(t *testing.T) {
	m1, m2 := variantMapping(1, 256), variantMapping(2, 256)
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, mustSnapshot(t, m1)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	delta := mapdiff.ComputeDelta(m1, m2)
	for _, c := range []struct {
		name string
		mk   func() *Snapshot
	}{
		{"built", func() *Snapshot { return mustSnapshot(t, m1) }},
		{"loaded", func() *Snapshot {
			s, err := LoadSnapshot(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"patched", func() *Snapshot {
			s, err := mustSnapshot(t, m1).ApplyDelta(delta)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	} {
		w := searchedThenDropped(c.mk)
		runtime.GC()
		if w.Value() != nil {
			t.Errorf("%s: a searched snapshot survived the first collection after it was dropped", c.name)
		}
	}
}

// temporaryBytes runs f with collection off and returns what it
// allocated beyond what stays live once everything but f's result is
// collected: the temporaries f held. Two collections first empty the
// pools' victim caches, which would otherwise be freed inside the
// measurement and count against what f keeps.
func temporaryBytes(f func() any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	gc := debug.SetGCPercent(-1)
	v := f()
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gc)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return allocated - (int64(after.HeapAlloc) - int64(before.HeapAlloc))
}

// reloadMappings returns the 50,000-organization mapping the reload
// memory guards load and patch, and that mapping with every hundredth
// organization renamed.
func reloadMappings() (m, renamed *cluster.Mapping) {
	const orgs = 50000
	names := make([]string, orgs)
	for i := range names {
		names[i] = fmt.Sprintf("Org %d Networks-%d", i, i%97)
	}
	m = namesMapping(names)
	for i := 0; i < orgs; i += 100 {
		names[i] += " Renamed"
	}
	return m, namesMapping(names)
}

// TestLoadTemporaryBytes: a binary load holds, beside the snapshot it
// returns, one staged run at a time (the longest of the names' text,
// the tokens' text and a rendered section's length table), the 64 KiB
// window every section is read through, and cluster.Restore's cursor
// per organization. A decoder that read each section whole would hold
// a buffer the size of the clusters section, about 58 bytes an
// organization here.
func TestLoadTemporaryBytes(t *testing.T) {
	m, _ := reloadMappings()
	s := mustSnapshot(t, m)
	path := filepath.Join(t.TempDir(), "a.snapbin")
	if _, err := WriteSnapshotFile(path, s); err != nil {
		t.Fatal(err)
	}
	orgs := s.NumOrgs()
	staged := max(len(s.orgs.Names.Text), len(s.tokens.Text), 4*orgs)
	// 128 KiB covers the window, the last chunk's spare room and the
	// decoder's own state.
	limit := int64(staged + 4*orgs + 128<<10)
	temp := temporaryBytes(func() any {
		loaded, err := LoadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return loaded
	})
	// Nothing built before the call may be collected inside the
	// measurement, or it would count against what the load keeps.
	runtime.KeepAlive(m)
	runtime.KeepAlive(s)
	t.Logf("loading %d organizations held %d temporary bytes (limit %d)", orgs, temp, limit)
	if temp > limit {
		t.Errorf("loading %d organizations held %d temporary bytes, want at most %d", orgs, temp, limit)
	}
}

// TestApplyDeltaTemporaryBytes: a delta patch holds, beside the
// snapshot it returns, 16 bytes per organization (remap's patched ID,
// orgStats' size and cluster.Restore's cursor) and what its additions
// need to be sorted, placed and tokenized, which stays under 512 bytes
// an addition. A patch that sorted a 40-byte entry per organization
// would hold nearly three times the limit.
func TestApplyDeltaTemporaryBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds allocate slices.Grow's make before appending it, doubling the table builders' bytes")
	}
	m, renamed := reloadMappings()
	delta := mapdiff.ComputeDelta(m, renamed)
	base := mustSnapshot(t, m)
	orgs := base.NumOrgs()
	limit := int64(16*orgs + 512*len(delta.Added) + 64<<10)
	temp := temporaryBytes(func() any {
		patched, err := base.ApplyDelta(delta)
		if err != nil {
			t.Fatal(err)
		}
		return patched
	})
	runtime.KeepAlive(base)
	t.Logf("patching %d organizations (%d added) held %d temporary bytes (limit %d)", orgs, len(delta.Added), temp, limit)
	if temp > limit {
		t.Errorf("patching %d organizations held %d temporary bytes, want at most %d", orgs, temp, limit)
	}
}

// TestSwapCollectsRetired: NewServer starts a garbage collection once
// its first snapshot serves, every swap that retires a snapshot starts
// one, and so does a prepared candidate the canary refuses. Without
// them the next heap goal stays at twice whatever a mid-load cycle
// marked (a decode's buffers, or outgoing and incoming snapshot
// together), and borgesd's peak RSS climbs with each reload. The
// events cover NewServer and the callers of the one swap path: a full
// reload, a delta reload, a rollback through the generation ring and a
// canary refusal. A full and a delta reload retire a snapshot that
// served a search just before the swap, and the collection the swap
// starts must free it.
func TestSwapCollectsRetired(t *testing.T) {
	m1, m2 := variantMapping(1, 256), variantMapping(2, 256)
	v1, v2 := mustSnapshot(t, m1), mustSnapshot(t, m2)
	ring := newTestRing(t, 4)
	if _, err := ring.Record(v1, time.Unix(1700000000, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	poisoned := poisonSearchIndex(t, v2)
	var candidate func() (*Snapshot, error)
	before := forcedGCs()
	srv, err := NewServer(v1, Options{
		Generations: ring,
		Prepared:    func(context.Context) (*Snapshot, error) { return candidate() },
		DeltaSource: func(context.Context) (*mapdiff.Delta, error) {
			return mapdiff.ComputeDelta(m2, m1), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitForCollection(t, "first snapshot", before, forcedGCs)
	ctx := context.Background()
	events := []struct {
		name    string
		serve   string // content hash serving afterwards
		retires bool   // the swap retires the snapshot that served a search
		run     func() error
	}{
		{"full reload", v2.ContentHash(), true, func() error {
			candidate = func() (*Snapshot, error) { return NewSnapshot(m2, "v2") }
			_, err := srv.Reload(ctx)
			return err
		}},
		{"delta reload", v1.ContentHash(), true, func() error {
			_, err := srv.ReloadDelta(ctx)
			return err
		}},
		{"rollback", v2.ContentHash(), false, func() error {
			_, _, err := srv.Rollback(ctx, "admin")
			return err
		}},
		{"canary refusal", v2.ContentHash(), false, func() error {
			candidate = func() (*Snapshot, error) { return LoadSnapshot(bytes.NewReader(poisoned)) }
			if _, err := srv.Reload(ctx); !errors.Is(err, ErrCanaryRejected) {
				return fmt.Errorf("reload = %v, want ErrCanaryRejected", err)
			}
			return nil
		}},
	}
	for _, ev := range events {
		var retired weak.Pointer[Snapshot]
		if ev.retires {
			if rec := do(t, srv, "GET", "/v1/search?name=org", nil); rec.Code != 200 {
				t.Fatalf("%s: search answered %d", ev.name, rec.Code)
			}
			retired = weak.Make(srv.Snapshot())
		}
		before := forcedGCs()
		if err := ev.run(); err != nil {
			t.Fatalf("%s: %v", ev.name, err)
		}
		if got := srv.Snapshot().ContentHash(); got != ev.serve {
			t.Fatalf("%s: serving %s, want %s", ev.name, got, ev.serve)
		}
		waitForCollection(t, ev.name, before, forcedGCs)
		if ev.retires && retired.Value() != nil {
			t.Errorf("%s: the retired snapshot survived the collection the swap started", ev.name)
		}
	}
}

// TestMemMetricsExposition scrapes /metrics: every borgesd_mem_* series
// appears exactly once, under exactly one HELP line and one TYPE line
// of its declared kind, and the forced-collection counter rises across
// a reload.
func TestMemMetricsExposition(t *testing.T) {
	// The reload's collection must not be NewServer's: wait that out.
	first := forcedGCs()
	srv, err := NewServer(mustSnapshot(t, variantMapping(1, 64)), Options{
		Prepared: func(context.Context) (*Snapshot, error) {
			return NewSnapshot(variantMapping(2, 64), "v2")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitForCollection(t, "first snapshot", first, forcedGCs)
	const forced = "borgesd_mem_gc_forced_cycles_total"
	scrape := func() map[string]uint64 {
		t.Helper()
		rec := do(t, srv, "GET", "/metrics", nil)
		help := map[string]int{}
		types := map[string][]string{}
		samples := map[string][]uint64{}
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			switch {
			case len(f) >= 3 && f[0] == "#" && f[1] == "HELP":
				help[f[2]]++
			case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
				types[f[2]] = append(types[f[2]], f[3])
			case len(f) == 2 && strings.HasPrefix(f[0], "borgesd_mem_"):
				v, err := strconv.ParseUint(f[1], 10, 64)
				if err != nil {
					t.Fatalf("%s: value %q: %v", f[0], f[1], err)
				}
				samples[f[0]] = append(samples[f[0]], v)
			}
		}
		values := make(map[string]uint64, len(memSeries))
		for _, s := range memSeries {
			if help[s.name] != 1 || len(types[s.name]) != 1 || types[s.name][0] != s.kind || len(samples[s.name]) != 1 {
				t.Fatalf("%s: %d HELP lines, TYPE %v, samples %v; want 1 HELP, TYPE [%s], 1 sample",
					s.name, help[s.name], types[s.name], samples[s.name], s.kind)
			}
			values[s.name] = samples[s.name][0]
		}
		for name := range samples {
			if _, ok := values[name]; !ok {
				t.Fatalf("%s is exported but not declared in memSeries", name)
			}
		}
		return values
	}
	before := scrape()
	for _, name := range []string{"borgesd_mem_gc_live_bytes", forced} {
		if _, ok := before[name]; !ok {
			t.Fatalf("%s missing from /metrics", name)
		}
	}
	if _, err := srv.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitForCollection(t, "reload", before[forced], func() uint64 { return scrape()[forced] })
}
