package seedrand

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// testSeeds returns more than 10⁵ seeds: the edges of the seed
// normalization (0, its stand-in 89482311, negatives, multiples of
// 2³¹−1 on both sides of zero, math.MinInt64 and math.MaxInt64) first,
// then random ones, a quarter of them of small magnitude.
func testSeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, -89482311, lehmerMod - 1, lehmerMod + 1,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	for k := int64(-64); k <= 64; k++ {
		seeds = append(seeds, k*lehmerMod, k*lehmerMod+1, k*lehmerMod-1)
	}
	for _, k := range []int64{math.MaxInt64 / lehmerMod, math.MinInt64 / lehmerMod} {
		seeds = append(seeds, k*lehmerMod)
	}
	rng := rand.New(rand.NewSource(0x5eed5))
	for len(seeds) < 100_000 {
		s := int64(rng.Uint64())
		if len(seeds)%4 == 0 {
			s = int64(int32(s)) // small magnitudes, half negative
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestSourceMatchesMathRand pins Source to math/rand draw for draw over
// more than 10⁵ seeds, both through a rand.Rand and through Source's own
// Intn, Uint32 and Perm: the draws the kernel makes (Intn of a power of
// two and of a non-power of two, Uint32), a diversity build's (Perm, Intn
// of 48) and raw Uint64s. Every seed draws the whole lazy window; every
// 64th also draws three windows' worth, where the source materializes
// math/rand's own, and every 64th (offset by 32) reseeds a used source
// that was left past its window.
func TestSourceMatchesMathRand(t *testing.T) {
	reused := NewSource(7)
	for i, seed := range testSeeds() {
		draws := LazyDraws
		if i%64 == 0 {
			draws = 3 * LazyDraws
		}
		want := rand.New(rand.NewSource(seed))
		src := NewSource(seed)
		if i%64 == 32 {
			reused.Seed(seed)
			src = reused
		}
		own := i%2 == 1 // odd seeds draw through Source's methods
		got := rand.New(src)
		for d := 0; d < draws; {
			var w, g uint64
			switch d % 5 {
			case 0:
				w = uint64(want.Intn(0x800))
				if own {
					g = uint64(src.Intn(0x800))
				} else {
					g = uint64(got.Intn(0x800))
				}
			case 1:
				n := 0x7fff
				if i%4 >= 2 {
					n = 48
				}
				w = uint64(want.Intn(n))
				if own {
					g = uint64(src.Intn(n))
				} else {
					g = uint64(got.Intn(n))
				}
			case 2:
				w = uint64(want.Uint32())
				if own {
					g = uint64(src.Uint32())
				} else {
					g = uint64(got.Uint32())
				}
			case 3:
				n := 1 + i%9
				wp := want.Perm(n)
				var gp []int
				if own {
					gp = src.Perm(n)
				} else {
					gp = got.Perm(n)
				}
				if !slices.Equal(wp, gp) {
					t.Fatalf("seed %d, draw %d: math/rand Perm(%d) %v, Source %v", seed, d, n, wp, gp)
				}
				d += n
				continue
			default:
				w, g = want.Uint64(), got.Uint64()
			}
			if w != g {
				t.Fatalf("seed %d, draw %d: math/rand %#x, Source %#x", seed, d, w, g)
			}
			d++
		}
		if i%64 == 32 {
			for d := 0; d < 2*LazyDraws; d++ { // leave the reused source past its window
				reused.Int63()
			}
		}
	}
}

// TestIntnRejects pins Intn's argument check, which math/rand's Intn
// shares for n <= 0.
func TestIntnRejects(t *testing.T) {
	for _, n := range []int{0, -1, 1 << 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			NewSource(1).Intn(n)
		}()
	}
}
