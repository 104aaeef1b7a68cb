package campaign

import (
	"testing"

	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
)

// verdictAttacks are the E10 working exploits, each on the paper
// protection level it defeats.
var verdictAttacks = []struct {
	arch isa.Arch
	kind exploit.Kind
	base Protection
}{
	{isa.ArchX86S, exploit.KindCodeInjection, LevelNone},
	{isa.ArchARMS, exploit.KindCodeInjection, LevelNone},
	{isa.ArchX86S, exploit.KindRet2Libc, LevelWX},
	{isa.ArchARMS, exploit.KindRopExeclp, LevelWX},
	{isa.ArchX86S, exploit.KindRopMemcpy, LevelWXASLR},
	{isa.ArchARMS, exploit.KindRopMemcpy, LevelWXASLR},
}

// TestVerdictIndependentOfDelivery: how the attack packet reaches a
// device must not change what the device's run is judged to be. Every
// E10 attack runs with no added mitigation, CFI, canary, full PIE and
// four diversity seeds, each on three pinned-seed devices, once handed
// straight to the daemon and once through the rogue-AP world; every
// device must get the same Outcome and Detail both ways.
func TestVerdictIndependentOfDelivery(t *testing.T) {
	var cells []Scenario
	for _, a := range verdictAttacks {
		postures := []Protection{a.base}
		p := a.base
		p.CFI = true
		postures = append(postures, p)
		p = a.base
		p.Canary = true
		postures = append(postures, p)
		p = a.base
		p.PIE, p.ASLR = true, true
		postures = append(postures, p)
		for seed := int64(1000); seed < 1004; seed++ {
			p = a.base
			p.DiversitySeed = seed
			postures = append(postures, p)
		}
		for _, p := range postures {
			for _, rogue := range []bool{false, true} {
				cells = append(cells, Scenario{
					Arch: a.arch, Kind: a.kind, Protection: p,
					Devices: 3, TargetSeed: 2002, Pineapple: rogue,
				})
			}
		}
	}
	rep, err := New(Config{Workers: 2}).Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	devices, differ := 0, 0
	for i := 0; i < len(cells); i += 2 {
		direct, rogue := &rep.Scenarios[i], &rep.Scenarios[i+1]
		for di := range direct.Devices {
			a, b := &direct.Devices[di], &rogue.Devices[di]
			devices++
			if b.Hijacked != 1 {
				t.Errorf("%s %s: rogue AP hijacked %d lookups, want 1", rogue.Label, b.Name, b.Hijacked)
			}
			if a.Outcome != b.Outcome || a.Detail != b.Detail {
				differ++
				t.Errorf("%s %s: direct %s (%s), rogue AP %s (%s)",
					direct.Label, a.Name, a.Outcome, a.Detail, b.Outcome, b.Detail)
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d devices judged differently by delivery path", differ, devices)
	}
}

// TestPineappleScaleCFICountsCrashes: a mitigation that stops the
// exploit on a population victim counts in crashes=, never shells= —
// the scale transcript folds BLOCKED into its crash counter.
func TestPineappleScaleCFICountsCrashes(t *testing.T) {
	rep, err := New(Config{Workers: 1}).RunPineappleScale(ScaleConfig{
		Stations: 20, Lookups: 1, VictimEvery: 10,
		Scenario: Scenario{Arch: isa.ArchARMS, Kind: exploit.KindRopMemcpy,
			Protection: Protection{WX: true, ASLR: true, CFI: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Victims != 2 || rep.Crashes != 2 || rep.Shells != 0 || rep.NoEffect != 0 {
		t.Errorf("CFI victims: want crashes=2 shells=0 noeffect=0\n%s", rep.Transcript())
	}
}

// TestClassifyMapping pins the one verdict function every delivery path
// judges with: each kernel status maps to its outcome, with a detail.
func TestClassifyMapping(t *testing.T) {
	cases := []struct {
		status kernel.Status
		want   Outcome
	}{
		{kernel.StatusShell, OutcomeShell},
		{kernel.StatusFault, OutcomeCrash},
		{kernel.StatusTimeout, OutcomeCrash},
		{kernel.StatusCFI, OutcomeBlocked},
		{kernel.StatusAborted, OutcomeBlocked},
		{kernel.StatusReturned, OutcomeNoEffect},
		{kernel.StatusExited, OutcomeNoEffect},
	}
	for _, c := range cases {
		res := kernel.RunResult{Status: c.status}
		if c.status == kernel.StatusShell {
			res.Shell = &kernel.ShellSpawn{Via: "execve"}
		}
		got, detail := Classify(res)
		if got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.status, got, c.want)
		}
		if detail == "" {
			t.Errorf("Classify(%v): empty detail", c.status)
		}
	}
}
