package kernel

import "math/rand"

// A layout draws at most about four values from its seed's stream (PIE
// slide, libc base, stack slide, canary), but rand.NewSource(seed) fills
// all 607 words of the additive lagged-Fibonacci register before the
// first draw, and that seeding was a recycle's largest cost. seedSource
// yields the same stream and seeds nothing. math/rand's source starts with
// tap 0 and feed 334 and walks both down, so draw k (k < 273) returns
// vec[333-k] + vec[606-k] over words no earlier draw wrote. Seeding sets
// vec[i] from three consecutive outputs of the Lehmer generator
// x' = 48271·x mod (2³¹−1), started at the normalized seed and advanced
// 21+3i times before the first of them, XORed with the cooked word
// rngCooked[i]; x_n = seed·48271ⁿ mod (2³¹−1) jumps straight there. Past
// lazyDraws draws the source materializes rand.NewSource(seed) and
// discards the draws already made, so every draw, however many, is the
// one math/rand returns.

const (
	// lazyDraws is how many draws seedSource computes without seeding.
	lazyDraws = 8
	// lehmerMod and lehmerMul are math/rand's seeding generator.
	lehmerMod = 1<<31 - 1
	lehmerMul = 48271
	// rngFeed and rngTap are vec's indices read by the first draw.
	rngFeed = 333
	rngTap  = 606
)

// rngCookedWords are math/rand's rngCooked[rngFeed-lazyDraws+1 ..
// rngFeed] and rngCooked[rngTap-lazyDraws+1 .. rngTap], in that order,
// copied from $GOROOT/src/math/rand/rng.go:
//
//	Copyright 2009 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style
//	license that can be found in the LICENSE file.
var rngCookedWords = [2 * lazyDraws]int64{
	581945337509520675, 3648778920718647903, -4799698790548231394, -7602572252857820065,
	220828013409515943, -1072987336855386047, 4287360518296753003, -4633371852008891965,
	-758328221503023383, -1894351639983151068, -307900319840287220, -6278469401177312761,
	-2171292963361310674, 8382142935188824023, 9103922860780351547, 4152330101494654406,
}

// lazyWord is one vec word a lazy draw reads: the Lehmer multiplier that
// jumps the normalized seed to the word's first output, and its cooked
// word.
type lazyWord struct {
	mul    uint64
	cooked int64
}

// lazyWords[2k] and lazyWords[2k+1] are the feed and tap words of draw k.
var lazyWords = func() (w [2 * lazyDraws]lazyWord) {
	for k := 0; k < lazyDraws; k++ {
		for j, base := range [2]int{rngFeed, rngTap} {
			i := base - k
			w[2*k+j] = lazyWord{mul: lehmerPow(21 + 3*uint64(i)), cooked: rngCookedWords[j*lazyDraws+lazyDraws-1-k]}
		}
	}
	return w
}()

// lehmerPow returns 48271ⁿ mod (2³¹−1).
func lehmerPow(n uint64) uint64 {
	r, b := uint64(1), uint64(lehmerMul)
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			r = r * b % lehmerMod
		}
		b = b * b % lehmerMod
	}
	return r
}

// seedSource is a rand.Source64 whose stream is rand.NewSource(seed)'s.
type seedSource struct {
	seed int64  // as given, for materializing
	x0   uint64 // normalized as math/rand's Seed does
	n    int    // draws made since Seed
	full rand.Source64
}

// newSeedSource returns a source seeded with seed.
func newSeedSource(seed int64) *seedSource {
	s := &seedSource{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source.
func (s *seedSource) Seed(seed int64) {
	x := seed % lehmerMod
	if x < 0 {
		x += lehmerMod
	}
	if x == 0 {
		x = 89482311
	}
	s.seed, s.x0, s.n = seed, uint64(x), 0
}

// word returns the vec word w of the seeded register.
func (s *seedSource) word(w lazyWord) int64 {
	x1 := s.x0 * w.mul % lehmerMod
	x2 := x1 * lehmerMul % lehmerMod
	x3 := x2 * lehmerMul % lehmerMod
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ w.cooked
}

// Uint64 implements rand.Source64.
func (s *seedSource) Uint64() uint64 {
	if k := s.n; k < lazyDraws {
		s.n++
		return uint64(s.word(lazyWords[2*k]) + s.word(lazyWords[2*k+1]))
	}
	if s.n == lazyDraws {
		if s.full == nil {
			s.full = rand.NewSource(s.seed).(rand.Source64)
		} else {
			s.full.Seed(s.seed)
		}
		for i := 0; i < lazyDraws; i++ {
			s.full.Uint64()
		}
		s.n++
	}
	return s.full.Uint64()
}

// Int63 implements rand.Source.
func (s *seedSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
