package serve

import (
	"context"
	"time"
)

// ScrubResult is one scrub target's outcome for a single pass.
type ScrubResult struct {
	// Checked counts artifacts whose integrity was re-verified.
	Checked int
	// Quarantined counts artifacts found corrupt and moved aside
	// (renamed to *.corrupt) this pass.
	Quarantined int
	// Repaired counts artifacts rewritten from an authoritative copy
	// (a replica's last-good re-fetched from its distributor, a
	// -snapshot-out file rewritten from the serving snapshot).
	Repaired int
	// Err reports a scrub pass that could not complete (distinct from
	// finding corruption, which is the scrubber working).
	Err error
}

// ScrubTarget is one store the background scrubber sweeps: the
// generation ring, a -snapshot-out file, a replica's last-good
// artifact.
type ScrubTarget struct {
	// Name labels the target in logs.
	Name string
	// Scrub performs one integrity pass. It must be safe to call
	// concurrently with serving traffic.
	Scrub func(ctx context.Context) ScrubResult
}

// ScrubSummary aggregates one full scrub cycle across every target,
// plus the post-scrub health probe and any rollback it triggered.
type ScrubSummary struct {
	Checked     int
	Quarantined int
	Repaired    int
	// ProbeErr is the serving-snapshot health probe's failure (nil when
	// the probe passed or no probe ran).
	ProbeErr error
	// RolledBack reports that the failed probe triggered an automatic
	// rollback to the newest verified generation.
	RolledBack bool
	// RollbackErr is why the automatic rollback itself failed (no ring,
	// no verified generation, canary rejection of the target).
	RollbackErr error
}

// scrubTargets assembles the full target list: the configured extras,
// the generation ring, and the -snapshot-out file.
func (s *Server) scrubTargets() []ScrubTarget {
	targets := append([]ScrubTarget(nil), s.opts.ScrubTargets...)
	if ring := s.opts.Generations; ring != nil {
		targets = append(targets, ScrubTarget{Name: "generations", Scrub: func(context.Context) ScrubResult {
			checked, quarantined := ring.Scrub()
			return ScrubResult{Checked: checked, Quarantined: quarantined}
		}})
	}
	if s.opts.SnapshotOut != "" {
		targets = append(targets, ScrubTarget{Name: "snapshot-out", Scrub: s.scrubSnapshotOut})
	}
	return targets
}

// scrubSnapshotOut re-verifies the -snapshot-out artifact and, when it
// is corrupt, quarantines it and rewrites it from the serving snapshot
// — the file exists to make the next cold start cheap, and the serving
// snapshot is the authoritative copy it mirrors. A missing file is not
// corruption (persistence may have failed and been counted already).
func (s *Server) scrubSnapshotOut(ctx context.Context) ScrubResult {
	fsys := s.fs()
	path := s.opts.SnapshotOut
	if _, err := fsys.Stat(path); err != nil {
		return ScrubResult{}
	}
	res := ScrubResult{Checked: 1}
	if _, err := LoadSnapshotFileFS(fsys, path); err == nil {
		return res
	}
	if err := fsys.Rename(path, path+".corrupt"); err == nil {
		res.Quarantined = 1
		s.opts.Logger.Info("snapshot_out_quarantine", "path", path)
	}
	if _, err := WriteSnapshotFileFS(fsys, path, s.snap.Load()); err != nil {
		s.metrics.persistErrors.Add(1)
		s.opts.Logger.Info("snapshot_out_repair", "ok", false, "error", err)
		res.Err = err
		return res
	}
	res.Repaired = 1
	s.opts.Logger.Info("snapshot_out_repair", "ok", true, "path", path)
	return res
}

// ScrubOnce runs one full scrub cycle: every target is swept, the
// serving snapshot is probed, and a failed probe triggers an automatic
// rollback to the newest verified generation. Exposed so operators
// (and deterministic tests) can force a cycle; the background loop
// calls it on ScrubInterval.
func (s *Server) ScrubOnce(ctx context.Context) ScrubSummary {
	var sum ScrubSummary
	for _, t := range s.scrubTargets() {
		res := t.Scrub(ctx)
		sum.Checked += res.Checked
		sum.Quarantined += res.Quarantined
		sum.Repaired += res.Repaired
		if res.Err != nil {
			s.opts.Logger.Info("scrub", "target", t.Name, "ok", false, "error", res.Err)
		} else if res.Quarantined > 0 || res.Repaired > 0 {
			s.opts.Logger.Info("scrub", "target", t.Name, "checked", res.Checked,
				"quarantined", res.Quarantined, "repaired", res.Repaired)
		}
	}
	s.metrics.scrubCycles.Add(1)
	s.metrics.scrubChecked.Add(int64(sum.Checked))
	s.metrics.scrubCorrupt.Add(int64(sum.Quarantined))
	s.metrics.scrubRepaired.Add(int64(sum.Repaired))

	sum.ProbeErr = s.probe()
	if sum.ProbeErr == nil {
		return sum
	}
	s.metrics.probeFailures.Add(1)
	s.opts.Logger.Info("health_probe", "ok", false, "error", sum.ProbeErr)
	if s.opts.Generations == nil {
		sum.RollbackErr = ErrNoVerifiedGeneration
		return sum
	}
	if _, _, err := s.Rollback(ctx, "auto"); err != nil {
		sum.RollbackErr = err
		s.opts.Logger.Info("auto_rollback", "ok", false, "error", err)
	} else {
		sum.RolledBack = true
	}
	return sum
}

// probe re-checks the serving snapshot's live invariants — the same
// canary every candidate passed at promotion, or a test's healthProbe
// override. A snapshot that passed its canary can still fail here if
// the process's memory of it was corrupted, or when a test injects a
// failure.
func (s *Server) probe() error {
	if s.opts.healthProbe != nil {
		return s.opts.healthProbe(s.snap.Load())
	}
	return canaryCheck(s.snap.Load(), nil, s.opts.Canary)
}

// scrubLoop drives periodic scrub cycles until ctx ends.
func (s *Server) scrubLoop(ctx context.Context) {
	t := time.NewTicker(s.opts.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.ScrubOnce(ctx)
		}
	}
}
