package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"time"

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

// TestSwapCollectsRetired: NewServer starts a garbage collection once
// its first snapshot serves, every swap that retires a snapshot starts
// one, and so does a prepared candidate the canary refuses. Without
// them the next heap goal stays at twice whatever a mid-load cycle
// marked (a decode's buffers, or outgoing and incoming snapshot
// together), and borgesd's peak RSS climbs with each reload. The
// events cover NewServer and the callers of the one swap path: a full
// reload, a delta reload, a rollback through the generation ring and a
// canary refusal.
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
		name  string
		serve string // content hash serving afterwards
		run   func() error
	}{
		{"full reload", v2.ContentHash(), func() error {
			candidate = func() (*Snapshot, error) { return NewSnapshot(m2, "v2") }
			_, err := srv.Reload(ctx)
			return err
		}},
		{"delta reload", v1.ContentHash(), func() error {
			_, err := srv.ReloadDelta(ctx)
			return err
		}},
		{"rollback", v2.ContentHash(), func() error {
			_, _, err := srv.Rollback(ctx, "admin")
			return err
		}},
		{"canary refusal", v2.ContentHash(), func() error {
			candidate = func() (*Snapshot, error) { return LoadSnapshot(bytes.NewReader(poisoned)) }
			if _, err := srv.Reload(ctx); !errors.Is(err, ErrCanaryRejected) {
				return fmt.Errorf("reload = %v, want ErrCanaryRejected", err)
			}
			return nil
		}},
	}
	for _, ev := range events {
		before := forcedGCs()
		if err := ev.run(); err != nil {
			t.Fatalf("%s: %v", ev.name, err)
		}
		if got := srv.Snapshot().ContentHash(); got != ev.serve {
			t.Fatalf("%s: serving %s, want %s", ev.name, got, ev.serve)
		}
		waitForCollection(t, ev.name, before, forcedGCs)
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
