package campaign

import (
	"testing"

	"connlab/internal/exploit"
	"connlab/internal/isa"
)

// determinismScenarios is a mixed workload: fleets, single cells, both
// delivery modes, derived and pinned seeds, a build failure, and the
// mitigation postures — everything whose ordering could conceivably
// depend on scheduling. Every layout the daemon pool recycles between is
// here (fixed, ASLR, PIE, canary builds, diversity links), so a pooled
// daemon re-laid out for the wrong device would show.
func determinismScenarios() []Scenario {
	return []Scenario{
		{Arch: isa.ArchARMS, Kind: exploit.KindRopMemcpy, Protection: LevelWXASLR,
			Devices: 5, PatchedEvery: 2, Pineapple: true},
		{Arch: isa.ArchX86S, Kind: exploit.KindRopMemcpy, Protection: LevelWXASLR, Devices: 4},
		{Arch: isa.ArchX86S, Kind: exploit.KindCodeInjection, Protection: LevelWX, Devices: 2},
		{Arch: isa.ArchARMS, Kind: exploit.KindRet2Libc, Protection: LevelNone, Devices: 2},
		{Arch: isa.ArchX86S, Kind: exploit.KindRet2Libc, Protection: LevelWX, TargetSeed: 2002},
		{Arch: isa.ArchARMS, Kind: exploit.KindRopMemcpy,
			Protection: Protection{WX: true, ASLR: true, CFI: true}, Devices: 2},
		{Arch: isa.ArchX86S, Kind: exploit.KindRopMemcpy,
			Protection: Protection{WX: true, ASLR: true, PIE: true}, Devices: 3},
		{Arch: isa.ArchARMS, Kind: exploit.KindRopExeclp,
			Protection: Protection{WX: true, Canary: true}, Devices: 2},
		{Arch: isa.ArchX86S, Kind: exploit.KindRet2Libc,
			Protection: Protection{WX: true, DiversitySeed: 99}, Devices: 3},
		{Arch: isa.ArchARMS, Kind: exploit.KindCodeInjection,
			Protection: Protection{DiversitySeed: 7}, Devices: 2},
	}
}

// TestDeterminismAcrossWorkerCounts is the engine's core guarantee: the
// same campaign run with 1 worker and with N workers produces
// byte-identical canonical reports and identical counts. Seeds derive
// from structure, results land by index, and no shared state leaks
// between trials — so parallelism is invisible in the output.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	var baseline *Report
	for _, workers := range []int{1, 4, 16} {
		eng := New(Config{Workers: workers, RootSeed: 7777})
		rep, err := eng.Run(determinismScenarios())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if baseline == nil {
			baseline = rep
			continue
		}
		if got, want := rep.Canonical(), baseline.Canonical(); got != want {
			t.Errorf("workers=%d: canonical report differs from 1-worker run\n--- 1 worker ---\n%s\n--- %d workers ---\n%s",
				workers, want, workers, got)
		}
		if rep.Owned != baseline.Owned || rep.Crashed != baseline.Crashed ||
			rep.Blocked != baseline.Blocked || rep.Survived != baseline.Survived ||
			rep.BuildFail != baseline.BuildFail || rep.Hijacked != baseline.Hijacked {
			t.Errorf("workers=%d: counts differ: %s vs %s", workers, rep, baseline)
		}
	}
}

// TestDeterminismAcrossRuns: two separate engines over the same scenarios
// agree — caches are per-engine, not global, and build order does not
// leak into results.
func TestDeterminismAcrossRuns(t *testing.T) {
	a, err := New(Config{Workers: 3, RootSeed: 31337}).Run(determinismScenarios())
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	b, err := New(Config{Workers: 2, RootSeed: 31337}).Run(determinismScenarios())
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if a.Canonical() != b.Canonical() {
		t.Errorf("fresh engines disagree:\n%s\nvs\n%s", a.Canonical(), b.Canonical())
	}
}
