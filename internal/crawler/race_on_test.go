//go:build race

package crawler

// raceEnabled lets timing-bound tests widen their bound under -race:
// the race runtime instruments every memory access, which slows the
// regexp scans about tenfold.
const raceEnabled = true
