// Package seedrand is a math/rand source whose stream is
// rand.NewSource(seed)'s, for callers that reseed often and draw a few
// values each time: the kernel's layout draws (PIE slide, libc base,
// stack slide, canary) and the diversity mitigation's link options (a
// permutation and a pad per function, about two draws per function).
//
// rand.NewSource(seed) fills all 607 words of its additive
// lagged-Fibonacci register before the first draw, and that seeding was
// the largest cost of a recycle and of a diversity build. Source yields
// the same stream and seeds nothing. math/rand's source starts with tap 0
// and feed 334 and walks both down, so draw k (k < 273) returns
// vec[333-k] + vec[606-k] over words no earlier draw wrote. Seeding sets
// vec[i] from three consecutive outputs of the Lehmer generator
// x' = 48271·x mod (2³¹−1), started at the normalized seed and advanced
// 21+3i times before the first of them, XORed with the cooked word
// rngCooked[i]; x_n = seed·48271ⁿ mod (2³¹−1) jumps straight there. Past
// LazyDraws draws the source materializes rand.NewSource(seed) and
// discards the draws already made, so every draw, however many, is the
// one math/rand returns.
package seedrand

import "math/rand"

const (
	// LazyDraws is how many draws Source computes without seeding: a
	// diversity build of a unit of up to 16 functions (one Intn per
	// function for the permutation and one for its pad, and Intn draws
	// again only with probability below 2⁻²⁵).
	LazyDraws = 32
	// lehmerMod and lehmerMul are math/rand's seeding generator.
	lehmerMod = 1<<31 - 1
	lehmerMul = 48271
	// rngFeed and rngTap are vec's indices read by the first draw.
	rngFeed = 333
	rngTap  = 606
)

// rngCookedWords are math/rand's rngCooked[rngFeed-LazyDraws+1 ..
// rngFeed] and rngCooked[rngTap-LazyDraws+1 .. rngTap], in that order,
// copied from $GOROOT/src/math/rand/rng.go:
//
//	Copyright 2009 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style
//	license that can be found in the LICENSE file.
var rngCookedWords = [2 * LazyDraws]int64{
	8785882556301281247, -3074039370013608197, -637529855400303673, 6137678347805511274,
	-7152924852417805802, 5708223427705576541, -3223714144396531304, 4358391411789012426,
	325123008708389849, 6837621693887290924, 4843721905315627004, -3212720814705499393,
	-3825019837890901156, 4602025990114250980, 1044646352569048800, 9106614159853161675,
	-8394115921626182539, -4304087667751778808, 2681532557646850893, 3681559472488511871,
	-3915372517896561773, -2889241648411946534, -6564663803938238204, -8060058171802589521,
	581945337509520675, 3648778920718647903, -4799698790548231394, -7602572252857820065,
	220828013409515943, -1072987336855386047, 4287360518296753003, -4633371852008891965,
	2278447439451174845, 3625338785743880657, 6477479539006708521, 8976185375579272206,
	-3712000482142939688, 1326024180520890843, 7537449876596048829, 5464680203499696154,
	3189671183162196045, 6346751753565857109, -8982212049534145501, -6127578587196093755,
	-245039190118465649, -6320577374581628592, 7208698530190629697, 7276901792339343736,
	-7490986807540332668, 4133292154170828382, 2918308698224194548, -7703910638917631350,
	-3929437324238184044, -4300543082831323144, -6344160503358350167, 5896236396443472108,
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
var lazyWords = func() (w [2 * LazyDraws]lazyWord) {
	for k := 0; k < LazyDraws; k++ {
		for j, base := range [2]int{rngFeed, rngTap} {
			i := base - k
			w[2*k+j] = lazyWord{mul: lehmerPow(21 + 3*uint64(i)), cooked: rngCookedWords[j*LazyDraws+LazyDraws-1-k]}
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

// Source is a rand.Source64 whose stream is rand.NewSource(seed)'s. Its
// Intn, Uint32 and Perm draw exactly what a rand.Rand over
// rand.NewSource(seed) draws, without one. The zero Source must be
// seeded before use.
type Source struct {
	seed int64  // as given, for materializing
	x0   uint64 // normalized as math/rand's Seed does
	n    int    // draws made since Seed
	full rand.Source64
}

// NewSource returns a source seeded with seed.
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source.
func (s *Source) Seed(seed int64) {
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
func (s *Source) word(w lazyWord) int64 {
	x1 := s.x0 * w.mul % lehmerMod
	x2 := x1 * lehmerMul % lehmerMod
	x3 := x2 * lehmerMul % lehmerMod
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ w.cooked
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	if k := s.n; k < LazyDraws {
		s.n++
		return uint64(s.word(lazyWords[2*k]) + s.word(lazyWords[2*k+1]))
	}
	if s.n == LazyDraws {
		if s.full == nil {
			s.full = rand.NewSource(s.seed).(rand.Source64)
		} else {
			s.full.Seed(s.seed)
		}
		for i := 0; i < LazyDraws; i++ {
			s.full.Uint64()
		}
		s.n++
	}
	return s.full.Uint64()
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint32 is rand.Rand's Uint32.
func (s *Source) Uint32() uint32 { return uint32(s.Int63() >> 31) }

// Intn is rand.Rand's Intn for n in [1, 2³¹−1]; it panics otherwise.
func (s *Source) Intn(n int) int {
	if n <= 0 || n > 1<<31-1 {
		panic("seedrand: Intn argument out of range")
	}
	m := int32(n)
	if m&(m-1) == 0 { // a power of two: mask
		return int(int32(s.Int63()>>32) & (m - 1))
	}
	limit := int32(1<<31 - 1 - (1<<31)%uint32(m))
	v := int32(s.Int63() >> 32)
	for v > limit {
		v = int32(s.Int63() >> 32)
	}
	return int(v % m)
}

// Perm is rand.Rand's Perm: a permutation of [0, n) drawn with n Intn.
func (s *Source) Perm(n int) []int {
	m := make([]int, n)
	for i := 0; i < n; i++ {
		j := s.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}
