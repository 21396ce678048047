//go:build race

package snapbin

// raceEnabled lets allocation-count tests skip under -race: the race
// runtime deliberately drops sync.Pool items to widen interleavings,
// which inflates per-op allocation counts.
const raceEnabled = true
