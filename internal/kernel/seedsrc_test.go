package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// TestSeedSourceMatchesMathRand pins seedSource to math/rand draw for
// draw over more than 10⁵ seeds: random ones, the edges of the seed
// normalization (0, its stand-in 89482311, negatives, multiples of
// 2³¹−1 on both sides of zero, math.MinInt64 and math.MaxInt64), and the
// draws the kernel makes (Intn of a power of two and of a non-power of
// two, Uint32). Every 64th seed also draws past the lazy window, where
// the source materializes math/rand's own, and reseeds a used source.
func TestSeedSourceMatchesMathRand(t *testing.T) {
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
	reused := rand.New(newSeedSource(7))
	for i, seed := range seeds {
		draws := lazyDraws
		if i%64 == 0 {
			draws = 3 * lazyDraws
		}
		want, got := rand.New(rand.NewSource(seed)), rand.New(newSeedSource(seed))
		if i%64 == 32 {
			reused.Seed(seed)
			got = reused
		}
		for d := 0; d < draws; d++ {
			var w, g uint64
			switch d % 4 {
			case 0:
				w, g = uint64(want.Intn(0x800)), uint64(got.Intn(0x800))
			case 1:
				w, g = uint64(want.Intn(0x7fff)), uint64(got.Intn(0x7fff))
			case 2:
				w, g = uint64(want.Uint32()), uint64(got.Uint32())
			default:
				w, g = want.Uint64(), got.Uint64()
			}
			if w != g {
				t.Fatalf("seed %d, draw %d: math/rand %#x, seedSource %#x", seed, d, w, g)
			}
		}
		if i%64 == 32 {
			for d := 0; d < 2*lazyDraws; d++ { // leave the reused source past its window
				reused.Int63()
			}
		}
	}
}
