package core

import (
	"testing"

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/victim"
)

// TestPineappleAgainstCFIDevice composes the remote scenario with the
// §IV mitigation: the hijack rides all the way to the device and dies at
// the first vetoed return — the network layer cannot tell, but the
// device survives as a crash rather than a shell.
func TestPineappleAgainstCFIDevice(t *testing.T) {
	lab := NewLab()
	p := campaign.LevelWXASLR
	p.CFI = true
	rep, err := lab.Engine().RunPineapple(lab.Scenario(isa.ArchARMS, exploit.KindRopMemcpy, p), 50, 90, 2)
	if err != nil {
		t.Fatalf("pineapple: %v", err)
	}
	if !rep.Reassociated || rep.Hijacked == 0 {
		t.Fatalf("delivery failed before the mitigation mattered: %+v", rep)
	}
	if rep.Outcome != campaign.OutcomeBlocked {
		t.Errorf("outcome = %s (%s), want BLOCKED by CFI", rep.Outcome, rep.Detail)
	}
}

// TestPineappleAgainstPatchedDevice: a patched device on a hostile
// network just keeps working.
func TestPineappleAgainstPatchedDevice(t *testing.T) {
	lab := NewLab()
	lab.Build.Patched = true
	// The attacker developed the exploit against the vulnerable firmware.
	lab.SetReconBuild(victim.BuildOpts{})
	rep, err := lab.Engine().RunPineapple(
		lab.Scenario(isa.ArchX86S, exploit.KindRopMemcpy, campaign.LevelWXASLR), 50, 90, 3)
	if err != nil {
		t.Fatalf("pineapple: %v", err)
	}
	if rep.Hijacked < 3 {
		t.Errorf("hijacked = %d, want all lookups answered", rep.Hijacked)
	}
	if rep.Outcome != campaign.OutcomeNoEffect {
		t.Errorf("outcome = %s (%s), want NO-EFFECT on patched firmware",
			rep.Outcome, rep.Detail)
	}
}

// TestDoSViaPineapple: even the crudest payload delivered remotely takes
// the device's DNS down for good.
func TestDoSViaPineapple(t *testing.T) {
	lab := NewLab()
	rep, err := lab.Engine().RunPineapple(
		lab.Scenario(isa.ArchARMS, exploit.KindDoS, campaign.LevelWXASLR), 50, 90, 4)
	if err != nil {
		t.Fatalf("pineapple: %v", err)
	}
	if rep.Outcome != campaign.OutcomeCrash {
		t.Errorf("outcome = %s, want CRASH", rep.Outcome)
	}
	if rep.Hijacked != 1 {
		t.Errorf("hijacked = %d; after the first kill the proxy must be deaf", rep.Hijacked)
	}
}

// TestRunAttackWithDiversityAndCFIStacked: mitigations compose; the
// strongest exploit dies at whichever fires first.
func TestRunAttackWithDiversityAndCFIStacked(t *testing.T) {
	lab := NewLab()
	p := campaign.LevelWXASLR
	p.CFI = true
	p.DiversitySeed = 7
	r, err := lab.RunAttack(isa.ArchX86S, exploit.KindRopMemcpy, p)
	if err != nil {
		t.Fatalf("attack: %v", err)
	}
	if r.Outcome == campaign.OutcomeShell {
		t.Fatalf("shell through stacked mitigations: %s", r.Detail)
	}
}
