package defense

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/seedrand"
	"connlab/internal/victim"
)

// TestDiversityOptionsDeterministic: the same seed yields the same
// layout, so a vendor can reproduce any shipped build.
func TestDiversityOptionsDeterministic(t *testing.T) {
	u, err := victim.BuildProgram(isa.ArchX86S, victim.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	a := DiversityOptions(u, 42)
	b := DiversityOptions(u, 42)
	for i := range a.Order {
		if a.Order[i] != b.Order[i] || a.Pad[i] != b.Pad[i] {
			t.Fatal("same seed produced different layouts")
		}
	}
	c := DiversityOptions(u, 43)
	same := true
	for i := range a.Order {
		if a.Order[i] != c.Order[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced the same permutation")
	}
}

// diversitySeeds returns more than 10⁵ seeds: the edges of math/rand's
// seed normalization (0, its stand-in 89482311, multiples of 2³¹−1 on
// both sides of zero, math.MinInt64 and math.MaxInt64), then random
// ones.
func diversitySeeds() []int64 {
	const mod = 1<<31 - 1
	seeds := []int64{0, 1, -1, 89482311, -89482311, mod - 1, mod + 1,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	for k := int64(-64); k <= 64; k++ {
		seeds = append(seeds, k*mod, k*mod+1, k*mod-1)
	}
	rng := rand.New(rand.NewSource(0xd1ce))
	for len(seeds) < 100_000 {
		s := int64(rng.Uint64())
		if len(seeds)%4 == 0 {
			s = int64(int32(s))
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestDiversityOptionsMatchesMathRand: DiversityOptions draws exactly the
// options rand.New(rand.NewSource(seed)) draws — a Perm of the function
// count, then one Intn(48) pad per function — for more than 10⁵ seeds and
// unit sizes 1 to 64, past the lazy window of seedrand where the draws
// come from a materialized math/rand source. The edge seeds try every
// size; the others one size each, in turn.
func TestDiversityOptionsMatchesMathRand(t *testing.T) {
	units := make([]*image.Unit, 65)
	for n := range units {
		units[n] = &image.Unit{Funcs: make([]*image.Function, n)}
	}
	check := func(seed int64, n int) {
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(n)
		pad := make([]int, n)
		for i := range pad {
			pad[i] = rng.Intn(48)
		}
		got := DiversityOptions(units[n], seed)
		if !slices.Equal(got.Order, order) || !slices.Equal(got.Pad, pad) {
			t.Fatalf("seed %d, %d funcs: DiversityOptions %+v, math/rand %v %v", seed, n, got, order, pad)
		}
	}
	for i, seed := range diversitySeeds() {
		if i < 11+3*129 {
			for n := 1; n <= 64; n++ {
				check(seed, n)
			}
			continue
		}
		check(seed, 1+i%64)
	}
}

// TestDiversityOptionsAllocs: a unit whose draws fit seedrand's lazy
// window gets its options without a math/rand source, so the two
// slices are all DiversityOptions allocates.
func TestDiversityOptionsAllocs(t *testing.T) {
	for n := 1; 2*n <= seedrand.LazyDraws; n++ {
		u := &image.Unit{Funcs: make([]*image.Function, n)}
		seed := int64(n)
		if got := testing.AllocsPerRun(100, func() { DiversityOptions(u, seed); seed++ }); got > 2 {
			t.Errorf("%d funcs: %v allocations, want 2", n, got)
		}
	}
}
