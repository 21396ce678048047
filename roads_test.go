package borges_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	borges "github.com/nu-aqualab/borges"
)

// TestAllRoadsOneHash: every route from a pipeline run to a serving
// snapshot — a direct build, the mapping's JSONL and the binary
// artifact through SnapshotFileSource, the artifact through
// LoadSnapshotFile, a stream through LoadSnapshot, a delta from a
// second mapping, the generation ring, and a fleet replica following a
// distributor by full fetch and by delta — must serve the same content:
// one content hash, and a Mapping that writes the same JSONL.
func TestAllRoadsOneHash(t *testing.T) {
	ctx := context.Background()
	ds, err := borges.GenerateDataset(borges.DatasetConfig{Seed: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	run := func(feats *borges.Features) *borges.Mapping {
		t.Helper()
		res, err := borges.Run(ctx, borges.Inputs{
			WHOIS:     ds.WHOIS,
			PDB:       ds.PDB,
			Transport: ds.Web,
			Provider:  borges.NewSimulatedLLM(),
		}, borges.Options{Features: feats})
		if err != nil {
			t.Fatal(err)
		}
		return res.Mapping
	}
	mA := run(nil)
	// B is the same corpus without favicons, so A and B differ by a
	// delta that both merges and splits organizations.
	mB := run(&borges.Features{OIDP: true, NotesAka: true, RR: true})

	var jsonl bytes.Buffer
	if err := borges.WriteMapping(&jsonl, mA); err != nil {
		t.Fatal(err)
	}
	snapA := mustServe(t, mA)
	want := snapA.ContentHash()
	snapB := mustServe(t, mB)
	if snapB.ContentHash() == want {
		t.Fatal("mappings A and B share a content hash; the delta route would prove nothing")
	}
	check := func(route string, s *borges.Snapshot, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		if got := s.ContentHash(); got != want {
			t.Errorf("%s: content hash %.12s, want %.12s", route, got, want)
		}
		var got bytes.Buffer
		if err := borges.WriteMapping(&got, s.Mapping()); err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		if !bytes.Equal(got.Bytes(), jsonl.Bytes()) {
			t.Errorf("%s: Mapping writes %d JSONL bytes that differ from the run's %d", route, got.Len(), jsonl.Len())
		}
	}
	check("NewSnapshot", snapA, nil)

	dir := t.TempDir()
	jsonlPath := filepath.Join(dir, "mapping.jsonl")
	if err := os.WriteFile(jsonlPath, jsonl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := borges.SnapshotFileSource(jsonlPath)(ctx)
	check("SnapshotFileSource(JSONL)", s, err)

	artPath := filepath.Join(dir, "a.snapbin")
	hash, err := borges.WriteSnapshotFile(artPath, snapA)
	if err != nil {
		t.Fatal(err)
	}
	if hash != want {
		t.Errorf("WriteSnapshotFile reports %.12s, want %.12s", hash, want)
	}
	s, err = borges.SnapshotFileSource(artPath)(ctx)
	check("SnapshotFileSource(artifact)", s, err)
	s, err = borges.LoadSnapshotFile(artPath)
	check("LoadSnapshotFile", s, err)

	var stream bytes.Buffer
	if _, err := borges.WriteSnapshot(&stream, snapA); err != nil {
		t.Fatal(err)
	}
	s, err = borges.LoadSnapshot(&stream)
	check("LoadSnapshot", s, err)

	s, err = snapB.ApplyDelta(borges.ComputeMappingDelta(mB, mA))
	check("ApplyDelta(B→A)", s, err)

	ring, err := borges.NewGenerationRing(filepath.Join(dir, "generations"), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []*borges.Snapshot{snapA, snapB} {
		if _, err := ring.Record(snap, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	s, _, err = ring.PreviousVerified(snapB.ContentHash())
	check("GenerationRing.PreviousVerified", s, err)

	// The distributor publishes A; a replica with no last-good artifact
	// cold-starts by a full fetch. The distributor then moves to B and
	// back to A, and the replica follows each move by delta.
	next := snapA
	dist, err := borges.NewFleetDistributor(snapA, borges.ServeOptions{
		Prepared: func(context.Context) (*borges.Snapshot, error) { return next, nil },
	}, borges.FleetDistributorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(dist.Handler())
	defer ts.Close()
	rctx, cancel := context.WithCancel(ctx)
	rep, err := borges.NewFleetReplica(rctx, borges.FleetReplicaOptions{
		ID:                "roads",
		Distributor:       ts.URL,
		LastGood:          filepath.Join(dir, "last-good.snapbin"),
		PollInterval:      10 * time.Millisecond,
		HeartbeatInterval: time.Hour,
	})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	check("fleet replica (full fetch)", rep.Server().Snapshot(), nil)
	done := make(chan error, 1)
	go func() { done <- rep.Run(rctx) }()
	defer func() {
		cancel()
		<-done
	}()
	for _, snap := range []*borges.Snapshot{snapB, mustServe(t, mA)} {
		next = snap
		if _, err := dist.Server().Reload(ctx); err != nil {
			t.Fatal(err)
		}
		waitServing(t, rep, snap.ContentHash())
	}
	check("fleet replica (delta)", rep.Server().Snapshot(), nil)
	metrics := httptest.NewRecorder()
	rep.Server().Handler().ServeHTTP(metrics, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range []string{"borgesd_fleet_fetch_full_total 1\n", "borgesd_fleet_fetch_delta_total 2\n"} {
		if !strings.Contains(metrics.Body.String(), line) {
			t.Errorf("replica /metrics lacks %q: the routes were not the ones under test", strings.TrimSpace(line))
		}
	}
}

func mustServe(t *testing.T, m *borges.Mapping) *borges.Snapshot {
	t.Helper()
	s, err := borges.NewSnapshot(m, "pipeline")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitServing polls until the replica serves hash.
func waitServing(t *testing.T, rep *borges.FleetReplica, hash string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rep.Server().Snapshot().ContentHash() != hash {
		if time.Now().After(deadline) {
			t.Fatalf("replica serves %.12s, want %.12s", rep.Server().Snapshot().ContentHash(), hash)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
