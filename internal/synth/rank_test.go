package synth

import (
	"math/rand"
	"testing"
)

// linearRanks is the reference rank allocator: the closest free rank
// at or after want, probed upward from want itself. It rescans every
// taken rank on each call, so keep its inputs small.
type linearRanks map[int]bool

func (taken linearRanks) rank(want int) int {
	if want < 1 {
		want = 1
	}
	for taken[want] {
		want++
	}
	taken[want] = true
	return want
}

// TestRankMatchesLinearProbe checks that gen.rank returns the rank the
// linear probe would on seeded random want sequences mixing values
// ≤ 0, repeats, wants past the first free rank, and long runs of
// rank(1), and that every rank below the cursor is taken throughout.
func TestRankMatchesLinearProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 8; trial++ {
		g, err := newGen(Config{Seed: 1, Scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		ref := linearRanks{}
		calls, prev := 0, 1
		check := func(want int) {
			t.Helper()
			calls++
			got, exp := g.rank(want), ref.rank(want)
			if got != exp {
				t.Fatalf("trial %d call %d: rank(%d) = %d, linear probe gives %d", trial, calls, want, got, exp)
			}
			if g.rankTaken[g.rankNext] {
				t.Fatalf("trial %d call %d: cursor %d sits on a taken rank", trial, calls, g.rankNext)
			}
			prev = want
		}
		for calls < 600 {
			switch rng.Intn(5) {
			case 0:
				check(-rng.Intn(3))
			case 1:
				check(prev)
			case 2:
				check(g.rankNext + 1 + rng.Intn(300))
			case 3:
				for n := 1 + rng.Intn(60); n > 0; n-- {
					check(1)
				}
			default:
				check(1 + rng.Intn(calls+1))
			}
		}
		for r := 1; r < g.rankNext; r++ {
			if !g.rankTaken[r] {
				t.Fatalf("trial %d: rank %d below the cursor %d is free", trial, r, g.rankNext)
			}
		}
	}
}
