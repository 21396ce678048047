// Package cache implements the content-addressed result cache behind
// Borges's expensive stages. Both learning-based features run
// GPT-4o-mini at temperature 0 precisely so that "the model
// consistently produces the most probable next token, resulting in
// reproducible outputs" (§4.2); the same determinism contract makes
// every completion — and every resolved crawl of a canonical URL —
// safely memoizable. Re-running the pipeline over an updated snapshot,
// or sweeping the 16-cell Table 6 ablation grid, then only pays for
// work whose inputs actually changed.
//
// A Cache has two tiers:
//
//   - an in-memory LRU bounded by Options.MaxEntries, and
//   - an optional on-disk append-only JSONL log (Options.Dir) that
//     survives process restarts; entries are read back lazily by file
//     offset, so the memory bound holds regardless of log size.
//
// Keys are opaque strings; callers derive them from a SHA-256 of the
// full request (see Key, llm.RequestKey, and the crawler's option
// fingerprint), which makes the store content-addressed: a changed
// prompt, model, sampling parameter, or crawl option is a different
// entry, never a stale hit.
//
// GetOrFill adds singleflight deduplication: when many goroutines miss
// on one key concurrently — every network that reports the same
// website, every ablation cell that re-sends one prompt — exactly one
// executes the fill and the rest share its result.
package cache

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/nu-aqualab/borges/internal/vfs"
)

// Options configure a Cache. The zero value is usable: an in-memory
// LRU of DefaultMaxEntries entries and no disk tier.
type Options struct {
	// MaxEntries bounds the in-memory LRU tier (default
	// DefaultMaxEntries). The disk tier is never evicted.
	MaxEntries int
	// Dir enables the disk tier: entries are appended to
	// Dir/entries.jsonl and replayed (by offset, not into memory) when
	// a Cache is reopened on the same directory.
	Dir string
	// FS overrides the filesystem the disk tier uses (default the real
	// one). Chaos tests substitute a deterministic fault filesystem.
	FS vfs.FS
}

// DefaultMaxEntries is the default in-memory LRU capacity.
const DefaultMaxEntries = 4096

// Stats count cache traffic.
type Stats struct {
	// Hits are Get/GetOrFill calls served from either tier.
	Hits int64
	// DiskHits is the subset of Hits served by reading the disk log.
	DiskHits int64
	// Misses are calls that found no entry (GetOrFill then ran its
	// fill).
	Misses int64
	// Dedups are GetOrFill calls that piggybacked on another
	// goroutine's in-flight fill instead of running their own.
	Dedups int64
	// Evictions counts LRU entries dropped from the memory tier.
	Evictions int64
	// CorruptRecords counts disk-tier reads whose per-record content
	// hash (or JSONL framing) failed verification. Each such record is
	// dropped from the disk index — the lookup becomes a miss, and the
	// next Put for that key re-appends a fresh, intact line.
	CorruptRecords int64
	// Entries is the current memory-tier size; DiskEntries counts keys
	// indexed in the disk log.
	Entries     int
	DiskEntries int
}

// entry is one memory-tier element.
type entry struct {
	key string
	val []byte
}

// call is one in-flight singleflight fill. done is made, under the
// cache's mutex, by the first caller that waits on the fill; the
// filler closes it only if one did, so a miss nobody shares allocates
// no channel.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// Cache is a two-tier content-addressed store, safe for concurrent
// use.
type Cache struct {
	opts Options

	mu     sync.Mutex
	lru    *list.List // front = most recent; values are *entry
	index  map[string]*list.Element
	flight map[string]*call
	stats  Stats

	// Disk tier. offsets maps key → byte offset of its JSONL line;
	// log is the append handle (also used for ReadAt).
	offsets map[string]int64
	log     vfs.File
	logSize int64
}

// diskLine is the JSONL wire form of one disk-tier entry. H is the hex
// SHA-256 of V, written on every append and verified on every read, so
// a record silently damaged at rest (bit rot, torn sector) is detected
// instead of served. Lines from logs written before H existed carry no
// hash and are accepted as-is.
type diskLine struct {
	K string `json:"k"`
	V []byte `json:"v"` // encoding/json base64-encodes []byte
	H string `json:"h,omitempty"`
}

// New opens a Cache. With Options.Dir set, an existing log in that
// directory is indexed so previous runs' entries are visible.
func New(opts Options) (*Cache, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = DefaultMaxEntries
	}
	c := &Cache{
		opts:   opts,
		lru:    list.New(),
		index:  make(map[string]*list.Element),
		flight: make(map[string]*call),
	}
	if opts.Dir != "" {
		if err := c.openLog(opts.Dir); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Cache) openLog(dir string) error {
	fsys := vfs.Or(c.opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cache: create dir: %w", err)
	}
	path := filepath.Join(dir, "entries.jsonl")
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("cache: open log: %w", err)
	}
	c.offsets = make(map[string]int64)
	// Index the existing log: record each complete line's offset, keep
	// the last occurrence of a key (later appends win). ReadBytes makes
	// newline termination explicit, so a torn final line (crash
	// mid-append) is detected and discarded rather than corrupting the
	// append offset.
	rd := bufio.NewReader(f)
	var off int64
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			if err != io.EOF {
				f.Close()
				return fmt.Errorf("cache: scan log: %w", err)
			}
			break // torn or empty tail: not indexed, overwritten by the next append
		}
		var dl diskLine
		if jerr := json.Unmarshal(line[:len(line)-1], &dl); jerr == nil && dl.K != "" {
			c.offsets[dl.K] = off
		}
		off += int64(len(line))
	}
	// Truncate a torn trailing write (crash mid-append) so future
	// appends produce valid lines.
	if err := f.Truncate(off); err != nil {
		f.Close()
		return fmt.Errorf("cache: truncate log: %w", err)
	}
	if _, err := f.Seek(off, 0); err != nil {
		f.Close()
		return fmt.Errorf("cache: seek log: %w", err)
	}
	c.log, c.logSize = f, off
	return nil
}

// Close releases the disk log handle. The memory tier stays usable.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}

// Get returns the cached value for key, consulting the memory tier
// then the disk log. Disk hits are promoted into the LRU.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(key, true)
}

// getLocked is Get under c.mu; count toggles hit/miss accounting so
// GetOrFill's second look (post-flight) doesn't double-count.
func (c *Cache) getLocked(key string, count bool) ([]byte, bool) {
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
		if count {
			c.stats.Hits++
		}
		return el.Value.(*entry).val, true
	}
	if off, ok := c.offsets[key]; ok && c.log != nil {
		val, err := c.readAt(off, key)
		if err == nil {
			c.putLocked(key, val)
			if count {
				c.stats.Hits++
				c.stats.DiskHits++
			}
			return val, true
		}
		// The record is damaged (hash mismatch, torn framing, wrong
		// key at the offset). Drop it from the disk index: this lookup
		// is a miss, and because appendLocked skips only keys still in
		// offsets, the next Put for this key writes a fresh line — the
		// log self-heals instead of replaying corruption forever.
		c.stats.CorruptRecords++
		delete(c.offsets, key)
	}
	if count {
		c.stats.Misses++
	}
	return nil, false
}

// readAt decodes the JSONL line starting at off and returns its value
// when the key matches.
func (c *Cache) readAt(off int64, key string) ([]byte, error) {
	// Lines are bounded in practice (LLM responses, crawl outcomes,
	// ≤64KiB icons); read in chunks until the newline shows up.
	buf := make([]byte, 0, 4096)
	chunk := make([]byte, 4096)
	for {
		n, err := c.log.ReadAt(chunk, off+int64(len(buf)))
		buf = append(buf, chunk[:n]...)
		if i := bytes.IndexByte(buf, '\n'); i >= 0 {
			buf = buf[:i]
			break
		}
		if err != nil { // io.EOF with no newline: torn line
			return nil, fmt.Errorf("cache: unterminated log line at %d", off)
		}
	}
	var dl diskLine
	if err := json.Unmarshal(buf, &dl); err != nil {
		return nil, fmt.Errorf("cache: decode log line: %w", err)
	}
	if dl.K != key {
		return nil, fmt.Errorf("cache: log offset %d holds key %.16s…, want %.16s…", off, dl.K, key)
	}
	if dl.H != "" {
		sum := sha256.Sum256(dl.V)
		if dl.H != hex.EncodeToString(sum[:]) {
			return nil, fmt.Errorf("cache: log offset %d record hash mismatch for %.16s…", off, key)
		}
	}
	return dl.V, nil
}

// Put stores a value in both tiers.
func (c *Cache) Put(key string, val []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val)
	return c.appendLocked(key, val)
}

func (c *Cache) putLocked(key string, val []byte) {
	if el, ok := c.index[key]; ok {
		el.Value.(*entry).val = val
		c.lru.MoveToFront(el)
		return
	}
	c.index[key] = c.lru.PushFront(&entry{key: key, val: val})
	for c.lru.Len() > c.opts.MaxEntries {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.index, oldest.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// appendLocked writes one JSONL line to the disk log, if enabled.
func (c *Cache) appendLocked(key string, val []byte) error {
	if c.log == nil {
		return nil
	}
	if _, ok := c.offsets[key]; ok {
		return nil // already durable; identical by content-addressing
	}
	sum := sha256.Sum256(val)
	line, err := json.Marshal(diskLine{K: key, V: val, H: hex.EncodeToString(sum[:])})
	if err != nil {
		return fmt.Errorf("cache: encode log line: %w", err)
	}
	line = append(line, '\n')
	if _, err := c.log.WriteAt(line, c.logSize); err != nil {
		return fmt.Errorf("cache: append log: %w", err)
	}
	c.offsets[key] = c.logSize
	c.logSize += int64(len(line))
	return nil
}

// GetOrFill returns the cached value for key, or runs fill to produce
// it. Concurrent callers that miss on the same key are deduplicated:
// one runs fill, the rest wait and share its result. Fill errors are
// returned to every waiter and are not cached.
func (c *Cache) GetOrFill(ctx context.Context, key string, fill func(ctx context.Context) ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	if val, ok := c.getLocked(key, true); ok {
		c.mu.Unlock()
		return val, nil
	}
	if fl, ok := c.flight[key]; ok {
		c.stats.Dedups++
		if fl.done == nil {
			fl.done = make(chan struct{})
		}
		done := fl.done
		c.mu.Unlock()
		select {
		case <-done:
			return fl.val, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	fl := &call{}
	c.flight[key] = fl
	c.mu.Unlock()

	val, err := fill(ctx)
	c.mu.Lock()
	delete(c.flight, key)
	if err == nil {
		c.putLocked(key, val)
		err = c.appendLocked(key, val)
	}
	// Waiters read the result once done is closed, which orders these
	// writes before their reads.
	fl.val, fl.err = val, err
	done := fl.done
	c.mu.Unlock()
	if done != nil {
		close(done)
	}
	return val, err
}

// Scrub re-reads and re-verifies every record indexed in the disk log,
// dropping corrupt ones from the index (each becomes a future miss and
// is re-written by the next Put). It returns how many records were
// checked and how many were found corrupt; the background scrubber
// wires this in as a scrub target. Safe to call concurrently with
// serving traffic — it holds the cache lock like any other operation.
func (c *Cache) Scrub() (checked, corrupt int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return 0, 0
	}
	for key, off := range c.offsets {
		checked++
		if _, err := c.readAt(off, key); err != nil {
			corrupt++
			c.stats.CorruptRecords++
			delete(c.offsets, key)
		}
	}
	return checked, corrupt
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.DiskEntries = len(c.offsets)
	return s
}

// Key derives a content-addressed key: the hex SHA-256 of the
// length-prefixed parts under a namespace. Namespaces keep the key
// spaces of different request kinds ("llm", "crawl") disjoint even
// when their payloads collide.
func Key(namespace string, parts ...string) string {
	// One preimage, hashed at once, in a stack buffer when it fits.
	var buf [512]byte
	pre := appendPart(buf[:0], namespace)
	for _, p := range parts {
		pre = appendPart(pre, p)
	}
	sum := sha256.Sum256(pre)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return namespace + ":" + string(hexSum[:])
}

func appendPart(pre []byte, s string) []byte {
	pre = binary.BigEndian.AppendUint64(pre, uint64(len(s)))
	return append(pre, s...)
}
