//go:build !race

package snapbin

const raceEnabled = false
