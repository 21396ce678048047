package serve

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/snapbin"
	"github.com/nu-aqualab/borges/internal/vfs"
)

// This file bridges Snapshot and the snapbin binary artifact format:
// image() flattens a snapshot into the portable snapbin.Image,
// WriteSnapshot/WriteSnapshotFile persist it, and LoadSnapshot/
// LoadSnapshotFile reconstruct a serving snapshot from the decoded
// sections — a few large reads plus slicing, no union-find replay, no
// re-tokenization.

// image flattens the snapshot into its portable binary form. The
// returned image aliases the snapshot's slices; callers must not
// mutate it.
func (s *Snapshot) image() *snapbin.Image {
	img := &snapbin.Image{
		Source:       s.source,
		LoadedAt:     s.loadedAt,
		HealthStatus: s.health.Status,
		Quarantined:  s.health.Quarantined,
		HealthDetail: s.health.Detail,
		Theta:        s.stats.Theta,
		MultiASOrgs:  s.stats.MultiASOrgs,
		LargestOrg:   s.stats.LargestOrg,
		Orgs:         s.orgs,
		Keys:         s.index.Keys(),
		Vals:         s.index.Vals(),
		Tokens:       s.tokens,
		Postings:     s.postings,
	}
	img.Histogram = make([]snapbin.Bucket, len(s.stats.SizeHistogram))
	for i, b := range s.stats.SizeHistogram {
		img.Histogram[i] = snapbin.Bucket{Lo: b.Lo, Hi: b.Hi, Orgs: b.Orgs}
	}
	return img
}

// snapshotFromImage reconstructs a serving snapshot from a decoded,
// hash-verified image, adopting its tables as they are. cluster.Restore
// re-verifies index↔membership correspondence, so a snapshot assembled
// here can never answer a lookup its member table disagrees with.
func snapshotFromImage(img *snapbin.Image, hash string) (*Snapshot, error) {
	members := img.Orgs.Members
	idx, err := cluster.Restore(members.Items, members.Off, img.Keys, img.Vals)
	if err != nil {
		return nil, fmt.Errorf("serve: binary snapshot: %w", err)
	}
	n := img.Orgs.Len()
	if idx.Len() == 0 || n == 0 {
		return nil, fmt.Errorf("serve: refusing to serve an empty mapping (%d orgs, %d networks)",
			n, idx.Len())
	}
	health := Health{
		Status:      img.HealthStatus,
		Quarantined: img.Quarantined,
		Detail:      img.HealthDetail,
	}
	if health.Status == "" {
		health.Status = HealthOK
	}
	s := &Snapshot{
		orgs:        img.Orgs,
		index:       idx,
		source:      img.Source,
		loadedAt:    img.LoadedAt,
		health:      health,
		loadMode:    LoadModeBinary,
		contentHash: hash,
	}
	s.scratchPool.New = func() any {
		return &searchScratch{bits: make([]uint64, (n+63)/64)}
	}
	s.tokens, s.postings = img.Tokens, img.Postings
	s.stats = Stats{
		Orgs:        n,
		ASNs:        idx.Len(),
		Theta:       img.Theta,
		MultiASOrgs: img.MultiASOrgs,
		LargestOrg:  img.LargestOrg,
	}
	s.stats.SizeHistogram = make([]SizeBucket, len(img.Histogram))
	for i, b := range img.Histogram {
		s.stats.SizeHistogram[i] = SizeBucket{Lo: b.Lo, Hi: b.Hi, Orgs: b.Orgs}
	}
	return s, nil
}

// WriteSnapshot encodes the snapshot as a snapbin artifact and
// returns its content hash.
func WriteSnapshot(w io.Writer, s *Snapshot) (string, error) {
	return snapbin.Encode(w, s.image())
}

// WriteSnapshotFile atomically persists the snapshot as a snapbin
// artifact at path (temp file, fsync, rename) and returns its content
// hash.
func WriteSnapshotFile(path string, s *Snapshot) (string, error) {
	return snapbin.WriteFile(path, s.image())
}

// WriteSnapshotFileFS is WriteSnapshotFile against an explicit
// filesystem — the seam the generation ring and the disk-chaos suites
// thread fault injection through.
func WriteSnapshotFileFS(fsys vfs.FS, path string, s *Snapshot) (string, error) {
	return snapbin.WriteFileFS(fsys, path, s.image())
}

// LoadSnapshot decodes a snapbin artifact from r into a serving
// snapshot through the streaming decoder (snapbin.Read): sections are
// decoded as they arrive, and the lowercase names, org bodies and AS
// tails are checked against the clusters and dropped. The content
// hash is checked over every byte before the snapshot is built.
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	img, hash, err := snapbin.Read(r)
	if err != nil {
		return nil, err
	}
	return snapshotFromImage(img, hash)
}

// LoadSnapshotFile decodes the snapbin artifact at path into a
// serving snapshot, streaming it like LoadSnapshot.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	img, hash, err := snapbin.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return snapshotFromImage(img, hash)
}

// LoadSnapshotFileFS is LoadSnapshotFile against an explicit
// filesystem. Every load fully re-verifies the artifact's content
// hash, so a snapshot returned here is never served unverified.
func LoadSnapshotFileFS(fsys vfs.FS, path string) (*Snapshot, error) {
	img, hash, err := snapbin.ReadFileFS(fsys, path)
	if err != nil {
		return nil, err
	}
	return snapshotFromImage(img, hash)
}

// LoadSnapshotFileMapped is LoadSnapshotFile.
//
// Deprecated: snapshots hold no response bytes to map any more; use
// LoadSnapshotFile.
func LoadSnapshotFileMapped(path string) (*Snapshot, error) { return LoadSnapshotFile(path) }

// PreparedSource produces a ready-made snapshot — one already built,
// loaded from a binary artifact, or patched from a predecessor —
// where Source produces a mapping for the server to index itself.
type PreparedSource func(ctx context.Context) (*Snapshot, error)

// SnapshotFileSource serves snapshots from a file of either format:
// if the file carries the snapbin magic it decodes the binary
// artifact (milliseconds), otherwise it falls back to the JSONL
// rebuild path (parse, union-find, tokenize). The sniff
// happens on every call, so an operator can swap a JSONL file for a
// binary artifact between reloads without restarting.
func SnapshotFileSource(path string) PreparedSource {
	return func(ctx context.Context) (*Snapshot, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if snapbin.SniffFile(path) {
			return LoadSnapshotFile(path)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		m, err := cluster.ReadJSONL(f)
		if err != nil {
			return nil, fmt.Errorf("loading mapping from %s: %w", path, err)
		}
		return newSnapshotAt(m, path, Health{Status: HealthOK}, time.Now())
	}
}
