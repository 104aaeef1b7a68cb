package core

import (
	"fmt"

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
)

// MitigationResult is one row of the §IV evaluation: how a mitigation
// fares against one exploit kind.
type MitigationResult struct {
	Mitigation string
	Arch       isa.Arch
	Kind       exploit.Kind
	// Trials and Blocked give the block rate (diversity is probabilistic;
	// the others are deterministic, evaluated with Trials == 1).
	Trials  int
	Blocked int
	// Outcomes tallies what happened per trial.
	Outcomes map[campaign.Outcome]int
}

// Rate returns the blocked fraction.
func (m MitigationResult) Rate() float64 {
	if m.Trials == 0 {
		return 0
	}
	return float64(m.Blocked) / float64(m.Trials)
}

// String renders a table row.
func (m MitigationResult) String() string {
	return fmt.Sprintf("%-10s %-5s %-15s blocked %d/%d (%.0f%%) %v",
		m.Mitigation, m.Arch, m.Kind, m.Blocked, m.Trials, 100*m.Rate(), m.Outcomes)
}

// mitigationAttacks are the working per-level exploits the mitigations
// are measured against.
func mitigationAttacks() []struct {
	arch isa.Arch
	kind exploit.Kind
	base campaign.Protection
} {
	return []struct {
		arch isa.Arch
		kind exploit.Kind
		base campaign.Protection
	}{
		{isa.ArchX86S, exploit.KindCodeInjection, campaign.LevelNone},
		{isa.ArchARMS, exploit.KindCodeInjection, campaign.LevelNone},
		{isa.ArchX86S, exploit.KindRet2Libc, campaign.LevelWX},
		{isa.ArchARMS, exploit.KindRopExeclp, campaign.LevelWX},
		{isa.ArchX86S, exploit.KindRopMemcpy, campaign.LevelWXASLR},
		{isa.ArchARMS, exploit.KindRopMemcpy, campaign.LevelWXASLR},
	}
}

// EvaluateMitigations runs experiment E10: every working exploit from the
// §III matrix against each §IV mitigation added on top of the protection
// level that exploit defeats. divTrials sets how many diversity seeds to
// sample (diversity gives probabilistic, per-build protection).
//
// Every trial is a single-device cell of one engine run: each pins the
// lab's target seed, so CFI, canary and full PIE are one deterministic
// trial each, and the diversity trials differ only in their seed.
func (l *Lab) EvaluateMitigations(divTrials int) ([]MitigationResult, error) {
	if divTrials <= 0 {
		divTrials = 5
	}
	mutations := []struct {
		name   string
		trials int
		mutate func(p campaign.Protection, trial int) campaign.Protection
	}{
		{"cfi", 1, func(p campaign.Protection, _ int) campaign.Protection { p.CFI = true; return p }},
		{"canary", 1, func(p campaign.Protection, _ int) campaign.Protection { p.Canary = true; return p }},
		{"full-pie", 1, func(p campaign.Protection, _ int) campaign.Protection { p.PIE, p.ASLR = true, true; return p }},
		// The exploit is harvested from the stock build; each trial
		// deploys a differently-diversified target.
		{"diversity", divTrials, func(p campaign.Protection, trial int) campaign.Protection {
			p.DiversitySeed = int64(1000 + trial)
			return p
		}},
	}
	var cells []campaign.Scenario
	for _, m := range mutations {
		for _, a := range mitigationAttacks() {
			for trial := 0; trial < m.trials; trial++ {
				cells = append(cells, l.Scenario(a.arch, a.kind, m.mutate(a.base, trial)))
			}
		}
	}
	rep, err := l.Engine().Run(cells)
	if err != nil {
		return nil, fmt.Errorf("mitigations: %w", err)
	}
	var out []MitigationResult
	next := 0
	for _, m := range mutations {
		for _, a := range mitigationAttacks() {
			r := MitigationResult{
				Mitigation: m.name, Arch: a.arch, Kind: a.kind,
				Trials: m.trials, Outcomes: make(map[campaign.Outcome]int),
			}
			for trial := 0; trial < m.trials; trial++ {
				o := rep.Scenarios[next].Devices[0].Outcome
				next++
				r.Outcomes[o]++
				if o != campaign.OutcomeShell {
					r.Blocked++
				}
			}
			out = append(out, r)
		}
	}
	return out, nil
}
