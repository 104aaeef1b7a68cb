package gadget

import (
	"math/rand"
	"testing"

	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/mem"
)

// resetScanState flushes the cache and restores defaults when the test
// ends, so cache-shape tests don't leak into each other.
func resetScanState(t *testing.T) {
	t.Helper()
	FlushScanCache()
	setScanCacheCap(0)
	t.Cleanup(func() {
		FlushScanCache()
		setScanCacheCap(0)
	})
}

// synthSection builds a synthetic executable section with deterministic
// pseudo-random content salted by id, so each id is distinct cacheable
// content.
func synthSection(id int64, n int) image.Section {
	rng := rand.New(rand.NewSource(1000 + id))
	data := make([]byte, n)
	rng.Read(data)
	return image.Section{Name: ".text", Addr: 0x1000, Perm: mem.PermRead | mem.PermExec, Data: data}
}

func TestScanCacheBoundedLRU(t *testing.T) {
	resetScanState(t)
	setScanCacheCap(2)

	s0, s1, s2 := synthSection(0, 512), synthSection(1, 512), synthSection(2, 512)
	idx0 := sectionIndex(isa.ArchX86S, s0)
	sectionIndex(isa.ArchX86S, s1)
	if n := ScanCacheLen(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	// Touch s0 so s1 is the LRU victim, then insert s2.
	sectionIndex(isa.ArchX86S, s0)
	sectionIndex(isa.ArchX86S, s2)
	if n := ScanCacheLen(); n != 2 {
		t.Fatalf("cache holds %d entries after eviction, want 2", n)
	}
	builds0, _ := ScanCacheStats()
	if got := sectionIndex(isa.ArchX86S, s0); got != idx0 {
		t.Error("s0 should still be cached (same index pointer)")
	}
	sectionIndex(isa.ArchX86S, s1) // evicted: must rebuild
	builds1, _ := ScanCacheStats()
	if builds1-builds0 != 1 {
		t.Errorf("rebuilds after eviction: got %d, want 1 (only the evicted s1)", builds1-builds0)
	}

	// Shrinking the cap evicts immediately.
	setScanCacheCap(1)
	if n := ScanCacheLen(); n != 1 {
		t.Fatalf("cache holds %d entries after cap shrink, want 1", n)
	}
}

// TestScanCacheEvictionPressure churns the scan cache far past its cap —
// the shape of a diversified-build sweep, which is what the capacity
// bound exists for — and checks the invariants that matter under
// pressure: the cache never exceeds its bound, a hot entry kept in the
// recency front survives the entire churn without a rebuild, and every
// cold section costs exactly one build however often it is evicted.
func TestScanCacheEvictionPressure(t *testing.T) {
	resetScanState(t)
	const cap = 8
	const distinct = 100
	setScanCacheCap(cap)

	hot := synthSection(9999, 512)
	hotIdx := sectionIndex(isa.ArchX86S, hot)

	sections := make([]image.Section, distinct)
	for i := range sections {
		sections[i] = synthSection(int64(i), 512)
	}
	builds0, hits0 := ScanCacheStats()
	for round := 0; round < 3; round++ {
		for i := range sections {
			sectionIndex(isa.ArchX86S, sections[i])
			// Re-touch the hot section after every few insertions so it
			// never ages to the back of the LRU list.
			if i%(cap/2) == 0 {
				if got := sectionIndex(isa.ArchX86S, hot); got != hotIdx {
					t.Fatalf("round %d, insertion %d: hot section was evicted and rebuilt", round, i)
				}
			}
			if n := ScanCacheLen(); n > cap {
				t.Fatalf("cache holds %d entries, cap is %d", n, cap)
			}
		}
	}
	builds1, hits1 := ScanCacheStats()
	// With 100 distinct sections cycling through an 8-entry cache, every
	// pass rebuilds every cold section (they are always evicted before
	// their next use); the hot section must account for all cache hits.
	coldBuilds := builds1 - builds0
	if want := uint64(3 * distinct); coldBuilds != want {
		t.Errorf("cold builds = %d, want %d (every pass rebuilds every cold section)", coldBuilds, want)
	}
	if hits1 == hits0 {
		t.Errorf("no cache hits recorded; the hot section's touches should all hit")
	}

	// Restoring the default cap stops the pressure: after one warming
	// pass, a second full pass is all hits.
	setScanCacheCap(0)
	for i := range sections {
		sectionIndex(isa.ArchX86S, sections[i])
	}
	builds3, _ := ScanCacheStats()
	for i := range sections {
		sectionIndex(isa.ArchX86S, sections[i])
	}
	builds4, _ := ScanCacheStats()
	if builds4 != builds3 {
		t.Errorf("%d rebuilds with the default cap, want 0", builds4-builds3)
	}
}
