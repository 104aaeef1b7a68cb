package core

import (
	"testing"

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
)

// runFleet runs one rogue-AP fleet of the lab's cell on the lab engine —
// the §III-D "one payload, many victims" sweep X3 renders.
func runFleet(t *testing.T, lab *Lab, s campaign.Scenario) (*campaign.ScenarioResult, *campaign.Report) {
	t.Helper()
	s.Pineapple = true
	rep, err := lab.Engine().Run([]campaign.Scenario{s})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	return &rep.Scenarios[0], rep
}

// TestFleetSweepOwnsUnpatchedOnly: one payload against a mixed fleet —
// every unpatched device falls to its own fresh ASLR sample (the chain
// only uses non-randomized addresses), every patched device survives.
func TestFleetSweepOwnsUnpatchedOnly(t *testing.T) {
	lab := NewLab()
	s := lab.Scenario(isa.ArchARMS, exploit.KindRopMemcpy, campaign.LevelWXASLR)
	s.Devices, s.PatchedEvery = 10, 3
	sr, _ := runFleet(t, lab, s)
	if len(sr.Devices) != 10 {
		t.Fatalf("devices = %d", len(sr.Devices))
	}
	for _, d := range sr.Devices {
		if d.Patched && d.Outcome != campaign.OutcomeNoEffect {
			t.Errorf("%s (patched): %s, want NO-EFFECT", d.Name, d.Outcome)
		}
		if !d.Patched && d.Outcome != campaign.OutcomeShell {
			t.Errorf("%s (vulnerable): %s, want SHELL", d.Name, d.Outcome)
		}
	}
	wantPatched := 4 // i = 0, 3, 6, 9
	if sr.Survived != wantPatched || sr.Owned != 10-wantPatched {
		t.Errorf("owned=%d survived=%d, want %d/%d", sr.Owned, sr.Survived,
			10-wantPatched, wantPatched)
	}
	if sr.Hijacked != 10 {
		t.Errorf("hijacked = %d, want 10", sr.Hijacked)
	}
}

// TestFleetReconRunsOncePerConfiguration: a fleet of any size recons its
// configuration exactly once — on both the parallel and the
// single-worker (sequential) path.
func TestFleetReconRunsOncePerConfiguration(t *testing.T) {
	for _, workers := range []int{1, 4} {
		lab := NewLab()
		lab.Workers = workers
		s := lab.Scenario(isa.ArchX86S, exploit.KindCodeInjection, campaign.LevelNone)
		s.Devices = 6
		sr, rep := runFleet(t, lab, s)
		if rep.ReconCache.Builds != 1 {
			t.Errorf("workers=%d: recon ran %d times for 6 devices, want 1",
				workers, rep.ReconCache.Builds)
		}
		if sr.Owned != 6 {
			t.Errorf("workers=%d: owned=%d, want 6", workers, sr.Owned)
		}
	}
}

// TestFleetAllPatchedSurvives: a fully-updated fleet shrugs the campaign
// off — the paper's first suggested mitigation (patching) at scale.
func TestFleetAllPatchedSurvives(t *testing.T) {
	lab := NewLab()
	s := lab.Scenario(isa.ArchX86S, exploit.KindRopMemcpy, campaign.LevelWXASLR)
	s.Devices, s.PatchedEvery = 4, 1
	sr, _ := runFleet(t, lab, s)
	if sr.Owned != 0 || sr.Crashed != 0 || sr.Survived != 4 {
		t.Errorf("owned=%d crashed=%d survived=%d, want 0/0/4", sr.Owned, sr.Crashed, sr.Survived)
	}
}
