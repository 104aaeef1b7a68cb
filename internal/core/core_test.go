package core

import (
	"testing"

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
)

// expectMatrix is the paper's §III result table: which exploit defeats
// which protection level.
func expectMatrix(arch isa.Arch, kind exploit.Kind, p campaign.Protection) campaign.Outcome {
	switch kind {
	case exploit.KindDoS:
		return campaign.OutcomeCrash
	case exploit.KindCodeInjection:
		if p.WX {
			return campaign.OutcomeCrash
		}
		return campaign.OutcomeShell
	case exploit.KindRet2Libc:
		if arch == isa.ArchARMS {
			return campaign.OutcomeBuildFail // register arguments: no stack-passed ret2libc
		}
		if p.ASLR {
			return campaign.OutcomeCrash
		}
		return campaign.OutcomeShell
	case exploit.KindRopExeclp:
		if arch == isa.ArchX86S {
			return campaign.OutcomeBuildFail
		}
		if p.ASLR {
			return campaign.OutcomeCrash
		}
		return campaign.OutcomeShell
	case exploit.KindRopMemcpy:
		return campaign.OutcomeShell // the §III-C ASLR bypass works at every level
	}
	return campaign.OutcomeNoEffect
}

// TestE8Matrix is the central reproduction: the full §III matrix must
// match the paper's qualitative results cell by cell.
func TestE8Matrix(t *testing.T) {
	lab := NewLab()
	cells, err := lab.paperMatrix()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lab.Engine().Run(cells)
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	if len(rep.Scenarios) != 2*3*5 {
		t.Fatalf("matrix has %d cells, want 30", len(rep.Scenarios))
	}
	for _, sr := range rep.Scenarios {
		s, d := sr.Scenario, sr.Devices[0]
		if want := expectMatrix(s.Arch, s.Kind, s.Protection); d.Outcome != want {
			t.Errorf("%s: outcome %s, want %s (%s)", sr.Label, d.Outcome, want, d.Detail)
		}
	}
}

// TestE9Pineapple runs the remote man-in-the-middle scenario with the
// strongest exploit at the strongest paper protection level, per arch.
func TestE9Pineapple(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			lab := NewLab()
			rep, err := lab.Engine().RunPineapple(
				lab.Scenario(arch, exploit.KindRopMemcpy, campaign.LevelWXASLR), 50, 90, 2)
			if err != nil {
				t.Fatalf("pineapple: %v", err)
			}
			if !rep.BaselineWorked {
				t.Error("baseline lookup through the legitimate resolver failed")
			}
			if !rep.Reassociated {
				t.Error("victim did not re-associate to the rogue AP")
			}
			if got := rep.VictimDNS.String(); got != "172.16.42.1" {
				t.Errorf("victim DNS = %s, want the pineapple 172.16.42.1", got)
			}
			if rep.Hijacked == 0 {
				t.Error("no lookups hijacked")
			}
			if rep.Outcome != campaign.OutcomeShell {
				t.Errorf("outcome = %s (%s), want SHELL", rep.Outcome, rep.Detail)
			}
		})
	}
}

// TestPineappleWeakSignalFails: with the rogue AP quieter than the
// legitimate one, the victim never re-associates and stays safe.
func TestPineappleWeakSignalFails(t *testing.T) {
	lab := NewLab()
	rep, err := lab.Engine().RunPineapple(
		lab.Scenario(isa.ArchX86S, exploit.KindRopMemcpy, campaign.LevelWXASLR), 90, 30, 2)
	if err != nil {
		t.Fatalf("pineapple: %v", err)
	}
	if rep.Reassociated {
		t.Error("victim re-associated to a weaker AP")
	}
	if rep.Outcome == campaign.OutcomeShell {
		t.Error("exploit landed without traffic hijack")
	}
}

// TestE10Mitigations: CFI and canaries block everything; full PIE blocks
// the ROP chains; diversity blocks the cached exploits.
func TestE10Mitigations(t *testing.T) {
	lab := NewLab()
	results, err := lab.EvaluateMitigations(3)
	if err != nil {
		t.Fatalf("mitigations: %v", err)
	}
	for _, m := range results {
		wantAllBlocked := true
		if m.Mitigation == "diversity" &&
			(m.Kind == exploit.KindCodeInjection || m.Kind == exploit.KindRet2Libc) {
			// A genuine limitation the lab surfaces: diversifying the
			// application binary moves its gadgets, but code injection
			// (stack addresses) and ret2libc (libc addresses) never touch
			// them — those exploits still land. Diversity only defends
			// the code-reuse surface.
			wantAllBlocked = false
		}
		if wantAllBlocked && m.Blocked != m.Trials {
			t.Errorf("%s: blocked %d/%d, want all", m.String(), m.Blocked, m.Trials)
		}
		if !wantAllBlocked && m.Blocked != 0 {
			t.Errorf("%s: blocked %d/%d, want 0 (diversity does not cover this vector)",
				m.String(), m.Blocked, m.Trials)
		}
	}
}

// TestE12AutoExploit: the generator picks the right strategy per posture
// and the generated payload works.
func TestE12AutoExploit(t *testing.T) {
	lab := NewLab()
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		for _, p := range campaign.PaperLevels() {
			ex, res, err := lab.AutoExploit(arch, p)
			if err != nil {
				t.Fatalf("auto %s/%s: %v", arch, p, err)
			}
			if res.Outcome != campaign.OutcomeShell {
				t.Errorf("auto %s/%s: outcome %s (%s), want SHELL", arch, p, res.Outcome, res.Detail)
			}
			if ex == nil || len(ex.Stream) == 0 {
				t.Errorf("auto %s/%s: empty exploit", arch, p)
			}
		}
	}
}
