package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nu-aqualab/borges/internal/obs"
	"github.com/nu-aqualab/borges/internal/snapbin"
	"github.com/nu-aqualab/borges/internal/vfs"
)

// ErrNoVerifiedGeneration: a rollback was requested but no on-disk
// generation other than the serving one decodes and verifies.
var ErrNoVerifiedGeneration = errors.New("serve: no verified previous generation")

// Generation describes one verified artifact in the ring.
type Generation struct {
	// Seq is the monotonic promotion ordinal (survives restarts: the
	// scan resumes after the highest seq on disk).
	Seq uint64 `json:"seq"`
	// Hash is the artifact's verified snapbin content hash.
	Hash string `json:"hash"`
	// Size is the artifact's byte size.
	Size int64 `json:"size"`
	// SavedAt is when the generation was promoted (file mtime for
	// generations recovered by the startup scan).
	SavedAt time.Time `json:"saved_at"`
	// File is the artifact's base name inside the ring directory.
	File string `json:"file"`
}

// GenerationRing keeps the last N verified snapbin artifacts on disk
// so every swap is reversible. Files are named
// gen-<seq>-<hash prefix>.snapbin, written with the same atomic
// temp+fsync+rename discipline as every other artifact, and pruned
// oldest-first past the keep limit. Nothing in the ring is ever served
// without a full decode re-verifying its content hash; a file that
// fails verification is quarantined — renamed to <name>.corrupt,
// counted, and never revisited.
type GenerationRing struct {
	dir  string
	keep int
	fs   vfs.FS
	log  *slog.Logger

	mu   sync.Mutex
	gens []Generation // ascending by Seq
	seq  uint64       // highest seq ever used

	quarantined atomic.Int64
}

// NewGenerationRing opens (creating if needed) a ring directory and
// scans it: every gen-*.snapbin file is decoded and hash-verified;
// corrupt or unparsable files are quarantined immediately, so a
// freshly opened ring only ever lists verified artifacts. fsys nil
// means the real filesystem; a nil log logs nothing.
func NewGenerationRing(dir string, keep int, fsys vfs.FS, log *slog.Logger) (*GenerationRing, error) {
	if keep < 1 {
		return nil, fmt.Errorf("serve: generation ring needs keep >= 1, got %d", keep)
	}
	r := &GenerationRing{dir: dir, keep: keep, fs: vfs.Or(fsys), log: obs.OrDiscard(log)}
	if err := r.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: generation ring: %w", err)
	}
	entries, err := r.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: generation ring: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, "gen-") || !strings.HasSuffix(name, ".snapbin") {
			continue
		}
		seq, ok := parseGenSeq(name)
		if !ok {
			r.quarantineLocked(Generation{File: name}, "unparsable name")
			continue
		}
		path := filepath.Join(dir, name)
		img, hash, err := snapbin.ReadFileFS(r.fs, path)
		if err != nil {
			r.quarantineLocked(Generation{Seq: seq, File: name}, err.Error())
			continue
		}
		g := Generation{Seq: seq, Hash: hash, File: name, SavedAt: img.LoadedAt}
		if st, err := r.fs.Stat(path); err == nil {
			g.Size = st.Size()
			g.SavedAt = st.ModTime()
		}
		r.gens = append(r.gens, g)
		if seq > r.seq {
			r.seq = seq
		}
	}
	sort.Slice(r.gens, func(i, j int) bool { return r.gens[i].Seq < r.gens[j].Seq })
	r.pruneLocked()
	return r, nil
}

// parseGenSeq extracts the sequence ordinal from gen-<seq>-<hash>.snapbin.
func parseGenSeq(name string) (uint64, bool) {
	rest := strings.TrimPrefix(name, "gen-")
	dash := strings.IndexByte(rest, '-')
	if dash <= 0 {
		return 0, false
	}
	seq, err := strconv.ParseUint(rest[:dash], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Dir returns the ring directory.
func (r *GenerationRing) Dir() string { return r.dir }

// Keep returns the configured retention limit.
func (r *GenerationRing) Keep() int { return r.keep }

// Len returns how many verified generations the ring currently holds.
func (r *GenerationRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.gens)
}

// QuarantinedTotal counts files the ring has quarantined over its
// lifetime (startup scan, rollback verification, and scrub passes).
func (r *GenerationRing) QuarantinedTotal() int64 { return r.quarantined.Load() }

// register declares the ring's families on a server's registry.
func (r *GenerationRing) register(reg *obs.Registry) {
	reg.Gauge("borgesd_snapshot_generations", "Verified snapshot generations held by the rollback ring.", func() float64 {
		return float64(r.Len())
	})
	reg.Counter("borgesd_generations_quarantined_total", "Ring artifacts quarantined as corrupt (renamed to .corrupt).", obs.Int64(&r.quarantined))
}

// Generations returns the ring's lineage, oldest first.
func (r *GenerationRing) Generations() []Generation {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Generation, len(r.gens))
	copy(out, r.gens)
	return out
}

// Record persists snap as the newest generation. Recording the hash
// already at the head is a no-op (a delta reload that produced
// identical content, or a rollback target being re-promoted). The
// write is atomic; on error nothing is recorded and the caller decides
// whether that is fatal (for a serving swap it never is — the swap
// already happened, persistence is best-effort durability).
func (r *GenerationRing) Record(snap *Snapshot, now time.Time) (Generation, error) {
	hash := snap.ContentHash()
	r.mu.Lock()
	if n := len(r.gens); n > 0 && r.gens[n-1].Hash == hash {
		g := r.gens[n-1]
		r.mu.Unlock()
		return g, nil
	}
	r.seq++
	seq := r.seq
	r.mu.Unlock()

	name := fmt.Sprintf("gen-%06d-%.12s.snapbin", seq, hash)
	path := filepath.Join(r.dir, name)
	if _, err := WriteSnapshotFileFS(r.fs, path, snap); err != nil {
		return Generation{}, fmt.Errorf("serve: generation ring: %w", err)
	}
	g := Generation{Seq: seq, Hash: hash, File: name, SavedAt: now}
	if st, err := r.fs.Stat(path); err == nil {
		g.Size = st.Size()
	}
	r.mu.Lock()
	r.gens = append(r.gens, g)
	r.pruneLocked()
	r.mu.Unlock()
	r.log.Info("generation_recorded", "seq", seq, "hash", hash, "file", name)
	return g, nil
}

// pruneLocked drops generations past the keep limit, oldest first.
// Callers hold r.mu.
func (r *GenerationRing) pruneLocked() {
	for len(r.gens) > r.keep {
		old := r.gens[0]
		r.gens = r.gens[1:]
		if err := r.fs.Remove(filepath.Join(r.dir, old.File)); err != nil {
			r.log.Info("generation_prune", "seq", old.Seq, "ok", false, "error", err)
		} else {
			r.log.Info("generation_prune", "seq", old.Seq, "hash", old.Hash)
		}
	}
}

// PreviousVerified decodes and returns the newest generation whose
// hash differs from exclude (the serving snapshot's hash) — the
// rollback target. Every candidate is re-verified on the spot; a
// generation that no longer decodes is quarantined and the walk
// continues to the next-oldest. ErrNoVerifiedGeneration when the ring
// is exhausted.
func (r *GenerationRing) PreviousVerified(exclude string) (*Snapshot, Generation, error) {
	for {
		r.mu.Lock()
		var pick Generation
		found := false
		for i := len(r.gens) - 1; i >= 0; i-- {
			if r.gens[i].Hash != exclude {
				pick = r.gens[i]
				found = true
				break
			}
		}
		r.mu.Unlock()
		if !found {
			return nil, Generation{}, ErrNoVerifiedGeneration
		}
		snap, err := LoadSnapshotFileFS(r.fs, filepath.Join(r.dir, pick.File))
		if err != nil {
			r.quarantine(pick, err.Error())
			continue
		}
		return snap, pick, nil
	}
}

// Scrub re-reads and re-verifies every generation, quarantining any
// that fail. It returns how many were checked and how many
// quarantined. A file already quarantined is gone from the ring, so
// repeated scrubs count each corrupt artifact exactly once.
func (r *GenerationRing) Scrub() (checked, quarantined int) {
	r.mu.Lock()
	gens := make([]Generation, len(r.gens))
	copy(gens, r.gens)
	r.mu.Unlock()
	for _, g := range gens {
		checked++
		_, hash, err := snapbin.ReadFileFS(r.fs, filepath.Join(r.dir, g.File))
		if err == nil && hash != g.Hash {
			err = fmt.Errorf("content hash changed on disk: %s != %s", hash, g.Hash)
		}
		if err != nil {
			r.quarantine(g, err.Error())
			quarantined++
		}
	}
	return checked, quarantined
}

// quarantine removes g from the ring and renames its file to
// <name>.corrupt, preserving the evidence while guaranteeing no load
// path can ever pick it up again (nothing scans *.corrupt).
func (r *GenerationRing) quarantine(g Generation, reason string) {
	r.mu.Lock()
	for i := range r.gens {
		if r.gens[i].File == g.File {
			r.gens = append(r.gens[:i], r.gens[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
	r.quarantineLocked(g, reason)
}

// quarantineLocked renames and counts without touching r.gens (the
// startup scan uses it before the entry ever joins the ring).
func (r *GenerationRing) quarantineLocked(g Generation, reason string) {
	path := filepath.Join(r.dir, g.File)
	if err := r.fs.Rename(path, path+".corrupt"); err != nil {
		r.log.Info("generation_quarantine", "file", g.File, "ok", false, "error", err)
		return
	}
	r.quarantined.Add(1)
	r.log.Info("generation_quarantine", "file", g.File, "reason", reason)
}
