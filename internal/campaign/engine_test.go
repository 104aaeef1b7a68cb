package campaign

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/victim"
)

// TestSingleScenarioMatrixCell: a one-device scenario reproduces the
// classic RunAttack verdicts — the §III diagonal on both architectures.
func TestSingleScenarioMatrixCell(t *testing.T) {
	cases := []struct {
		arch isa.Arch
		kind exploit.Kind
		p    Protection
		want Outcome
	}{
		{isa.ArchX86S, exploit.KindCodeInjection, LevelNone, OutcomeShell},
		{isa.ArchX86S, exploit.KindCodeInjection, LevelWX, OutcomeCrash},
		{isa.ArchX86S, exploit.KindRet2Libc, LevelWX, OutcomeShell},
		{isa.ArchX86S, exploit.KindRopMemcpy, LevelWXASLR, OutcomeShell},
		{isa.ArchARMS, exploit.KindRopExeclp, LevelWX, OutcomeShell},
		{isa.ArchARMS, exploit.KindRopMemcpy, LevelWXASLR, OutcomeShell},
		{isa.ArchARMS, exploit.KindRet2Libc, LevelNone, OutcomeBuildFail},
	}
	eng := New(Config{Workers: 2})
	var scenarios []Scenario
	for _, c := range cases {
		scenarios = append(scenarios, Scenario{
			Arch: c.arch, Kind: c.kind, Protection: c.p, TargetSeed: 2002,
		})
	}
	rep, err := eng.Run(scenarios)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, c := range cases {
		got := rep.Scenarios[i].Devices[0].Outcome
		if got != c.want {
			t.Errorf("%s/%s/%s: outcome %s, want %s", c.arch, c.kind, c.p, got, c.want)
		}
	}
	if rep.TotalDevices() != len(cases) {
		t.Errorf("devices = %d, want %d", rep.TotalDevices(), len(cases))
	}
	if rep.String() == "" || rep.Table() == "" {
		t.Error("empty report rendering")
	}
}

// TestReconOncePerConfiguration: a fleet of many devices under one
// configuration recons exactly once; adding a second configuration adds
// exactly one more build.
func TestReconOncePerConfiguration(t *testing.T) {
	eng := New(Config{Workers: 4})
	rep, err := eng.Run([]Scenario{
		{Arch: isa.ArchARMS, Kind: exploit.KindRopMemcpy, Protection: LevelWXASLR, Devices: 6},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := eng.ReconStats().Builds; got != 1 {
		t.Errorf("recon builds after 6-device fleet = %d, want 1", got)
	}
	if got := eng.ReconStats().Hits; got != 5 {
		t.Errorf("recon hits = %d, want 5", got)
	}
	if rep.Owned != 6 {
		t.Errorf("owned = %d, want 6: %s", rep.Owned, rep.Canonical())
	}

	// A second posture on the same engine is one more recon, no matter
	// how many devices ride it.
	if _, err := eng.Run([]Scenario{
		{Arch: isa.ArchARMS, Kind: exploit.KindRopExeclp, Protection: LevelWX, Devices: 4},
	}); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if got := eng.ReconStats().Builds; got != 2 {
		t.Errorf("recon builds after second configuration = %d, want 2", got)
	}
	// The victim program build is also shared across a fleet's devices.
	if got := eng.units.Stats().Builds; got > 2 {
		t.Errorf("victim unit builds = %d, want <= 2 (one per configuration)", got)
	}
}

// TestFleetPineappleDelivery: the rogue-AP delivery owns unpatched
// devices, spares patched ones, and counts one hijacked lookup each.
func TestFleetPineappleDelivery(t *testing.T) {
	eng := New(Config{Workers: 3})
	rep, err := eng.Run([]Scenario{{
		Arch: isa.ArchARMS, Kind: exploit.KindRopMemcpy, Protection: LevelWXASLR,
		Devices: 6, PatchedEvery: 3, TargetSeed: 2002, Pineapple: true,
	}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	sr := rep.Scenarios[0]
	if sr.Owned != 4 || sr.Survived != 2 {
		t.Errorf("owned=%d survived=%d, want 4/2\n%s", sr.Owned, sr.Survived, rep.Canonical())
	}
	if sr.Hijacked != 6 {
		t.Errorf("hijacked = %d, want 6", sr.Hijacked)
	}
	for _, d := range sr.Devices {
		if d.Patched && d.Outcome != OutcomeNoEffect {
			t.Errorf("%s (patched): %s", d.Name, d.Outcome)
		}
		if !d.Patched && d.Outcome != OutcomeShell {
			t.Errorf("%s (vulnerable): %s", d.Name, d.Outcome)
		}
	}
}

// TestBuildFailIsVerdictNotError: a payload that cannot be built yields
// NO-PAYLOAD devices and a nil error, like RunAttack always has.
func TestBuildFailIsVerdictNotError(t *testing.T) {
	eng := New(Config{})
	rep, err := eng.Run([]Scenario{{
		Arch: isa.ArchARMS, Kind: exploit.KindRet2Libc, Protection: LevelNone, Devices: 3,
	}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.BuildFail != 3 {
		t.Errorf("no-payload = %d, want 3", rep.BuildFail)
	}
	if eng.payloads.Stats().Builds != 1 {
		t.Errorf("payload builds = %d, want 1 (failure cached)", eng.payloads.Stats().Builds)
	}
	for _, d := range rep.Scenarios[0].Devices {
		if d.Detail == "" {
			t.Error("build-fail device missing detail")
		}
	}
}

// TestDerivedSeedsAreDistinct: with no pinned TargetSeed, every device
// gets its own derived seed, and they differ across scenarios too.
func TestDerivedSeedsAreDistinct(t *testing.T) {
	eng := New(Config{RootSeed: 99})
	rep, err := eng.Run([]Scenario{
		{Arch: isa.ArchX86S, Kind: exploit.KindDoS, Protection: LevelNone, Devices: 4},
		{Arch: isa.ArchARMS, Kind: exploit.KindDoS, Protection: LevelNone, Devices: 4},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	seen := map[int64]string{}
	for _, sr := range rep.Scenarios {
		for _, d := range sr.Devices {
			if d.Seed <= 0 {
				t.Errorf("%s/%s: non-positive seed %d", sr.Label, d.Name, d.Seed)
			}
			if prev, dup := seen[d.Seed]; dup {
				t.Errorf("seed %d assigned to both %s and %s/%s", d.Seed, prev, sr.Label, d.Name)
			}
			seen[d.Seed] = sr.Label + "/" + d.Name
		}
	}
	// DoS against the vulnerable parser crashes regardless of seed.
	if rep.Crashed != 8 {
		t.Errorf("crashed = %d, want 8\n%s", rep.Crashed, rep.Canonical())
	}
}

// TestLegacyFleetSeedSchedule: a pinned TargetSeed reproduces the
// historical sequential fleet's per-device seeds (TargetSeed+100+i).
func TestLegacyFleetSeedSchedule(t *testing.T) {
	eng := New(Config{})
	rep, err := eng.Run([]Scenario{{
		Arch: isa.ArchX86S, Kind: exploit.KindDoS, Protection: LevelNone,
		Devices: 3, TargetSeed: 5000,
	}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, d := range rep.Scenarios[0].Devices {
		want := int64(5000 + 100 + i)
		if d.Seed != want {
			t.Errorf("device %d seed = %d, want %d", i, d.Seed, want)
		}
	}
}

// TestCanonicalOmitsTimings: the canonical rendering must not leak
// anything scheduling-dependent.
func TestCanonicalOmitsTimings(t *testing.T) {
	eng := New(Config{Workers: 2})
	rep, err := eng.Run([]Scenario{
		{Arch: isa.ArchX86S, Kind: exploit.KindDoS, Protection: LevelNone},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Wall <= 0 {
		t.Error("report missing wall-clock time")
	}
	c := rep.Canonical()
	for _, banned := range []string{"workers", "wall", "cache"} {
		if strings.Contains(c, banned) {
			t.Errorf("canonical rendering contains %q:\n%s", banned, c)
		}
	}
}

// TestReconProbeShared: the engine probes each replicated firmware once
// and completes the probe per W⊕X/ASLR posture, on a crash dummy borrowed
// from its daemon pool. For every ISA, build and posture its Target must
// equal exploit.Recon's — frame, buffer address, libc samples and the
// linked image's sections — and no recon key may load a daemon of its
// own.
func TestReconProbeShared(t *testing.T) {
	builds := []victim.BuildOpts{{}, {Bounded: true, Slack: 1}}
	eng := New(Config{Workers: 2})
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		for _, build := range builds {
			for _, p := range []Protection{LevelNone, LevelWX, {ASLR: true}, LevelWXASLR} {
				name := fmt.Sprintf("%s/bounded=%v/%s", arch, build.Bounded, p)
				got, err := eng.Recon(Scenario{Arch: arch, Build: build, Protection: p})
				if err != nil {
					t.Fatalf("%s: engine recon: %v", name, err)
				}
				want, err := exploit.Recon(arch, build,
					kernel.Config{WX: p.WX, ASLR: p.ASLR, Seed: DefaultReconSeed})
				if err != nil {
					t.Fatalf("%s: exploit.Recon: %v", name, err)
				}
				if !reflect.DeepEqual(got.Frame, want.Frame) || got.BufferAddr != want.BufferAddr {
					t.Errorf("%s: frame %+v buffer %#x, want %+v buffer %#x",
						name, got.Frame, got.BufferAddr, want.Frame, want.BufferAddr)
				}
				if got.LibcSystem != want.LibcSystem || got.LibcExit != want.LibcExit || got.LibcBinSh != want.LibcBinSh {
					t.Errorf("%s: libc system/exit/binsh %#x/%#x/%#x, want %#x/%#x/%#x", name,
						got.LibcSystem, got.LibcExit, got.LibcBinSh, want.LibcSystem, want.LibcExit, want.LibcBinSh)
				}
				if !reflect.DeepEqual(got.Img.Sections, want.Img.Sections) {
					t.Errorf("%s: linked image sections differ from exploit.Recon's", name)
				}
			}
		}
		// Both builds' probes ran on one crash dummy, and it went back to
		// the pool for the devices.
		if n := len(eng.pool[arch]); n != 1 {
			t.Errorf("%s: %d idle daemons after recon, want the one crash dummy", arch, n)
		}
	}
	if got, want := eng.probes.Stats().Builds, int64(2*len(builds)); got != want {
		t.Errorf("probes built %d times, want once per (arch, build) = %d", got, want)
	}
	if got, want := eng.ReconStats().Builds, int64(2*len(builds)*4); got != want {
		t.Errorf("recon keys built %d, want %d", got, want)
	}
}
