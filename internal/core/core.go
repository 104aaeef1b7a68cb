// Package core is the lab: reproducible seeds and a victim build over one
// persistent campaign engine, plus the experiments that are more than a
// campaign run — single attacks (RunAttack), the §IV mitigation
// evaluation (EvaluateMitigations), the §VII automated exploit generator
// (AutoExploit), the ASLR brute force (BruteForceASLR) — and the reports
// that render every paper experiment. Every trial is a campaign.Scenario
// and comes back as a campaign.DeviceResult: callers run an Engine method
// on a lab cell (Lab.Engine, Lab.Scenario) for anything else, such as the
// §III matrix or the §III-D Pineapple runs.
package core

import (
	"errors"

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/victim"
)

// Lab runs attack experiments with reproducible seeds.
type Lab struct {
	// ReconSeed seeds the attacker's replica; TargetSeed seeds the real
	// target. Distinct seeds mean distinct ASLR samples, as in reality.
	ReconSeed, TargetSeed int64
	// Build selects the victim variant (vulnerable 1.34 by default).
	Build victim.BuildOpts
	// Workers sets the engine's worker-pool size; 0 means GOMAXPROCS.
	// The count never changes results, only wall clock.
	Workers int

	reconBuild *victim.BuildOpts

	// eng is the lab's persistent campaign engine: recon, payloads,
	// program units and crafted packets cached across every call.
	// Recreated when the seeds or worker count change (engCfg remembers
	// what it was built with); the victim build is part of every cache
	// key, so Build changes need no reset.
	eng    *campaign.Engine
	engCfg campaign.Config
}

// NewLab returns a lab with the default seeds.
func NewLab() *Lab { return &Lab{ReconSeed: 1001, TargetSeed: 2002} }

// SetReconBuild makes the attacker replicate a different firmware than
// the deployed one — e.g. the attacker recons vulnerable 1.34 while the
// real target runs patched 1.35.
func (l *Lab) SetReconBuild(b victim.BuildOpts) { l.reconBuild = &b }

// Engine returns the lab's persistent campaign engine, wired to the
// current seeds and worker count.
func (l *Lab) Engine() *campaign.Engine {
	cfg := campaign.Config{
		Workers:   l.Workers,
		RootSeed:  l.TargetSeed,
		ReconSeed: l.ReconSeed,
	}
	if l.eng == nil || l.engCfg != cfg {
		l.eng = campaign.New(cfg)
		l.engCfg = cfg
	}
	return l.eng
}

// Scenario renders one lab attack cell as a single-device campaign
// scenario: the lab's build and recon firmware, its target seed pinned.
func (l *Lab) Scenario(arch isa.Arch, kind exploit.Kind, p campaign.Protection) campaign.Scenario {
	return campaign.Scenario{
		Arch: arch, Kind: kind, Protection: p,
		Build: l.Build, ReconBuild: l.reconBuild,
		TargetSeed: l.TargetSeed,
	}
}

// Recon performs the attacker-side reconnaissance for an architecture,
// assuming the target's W⊕X/ASLR posture (the attacker replicates the
// environment; CFI/diversity are invisible to recon, which is the point
// of measuring them). Recon is cached in the lab's engine: one build per
// (arch, posture, firmware) configuration, however many attacks reuse it.
func (l *Lab) Recon(arch isa.Arch, p campaign.Protection) (*exploit.Target, error) {
	return l.Engine().Recon(l.Scenario(arch, "", p))
}

// RunAttack recons, builds one exploit kind, and fires it at a fresh
// victim under the protection level. All attacker-side artifacts come
// from the lab engine's caches, so repeated attacks on one configuration
// pay for recon, payload construction and packet assembly once. A trial
// that failed on infrastructure is returned as an error; a payload that
// cannot be built is the NO-PAYLOAD verdict.
func (l *Lab) RunAttack(arch isa.Arch, kind exploit.Kind, p campaign.Protection) (campaign.DeviceResult, error) {
	d := l.Engine().RunOne(l.Scenario(arch, kind, p))
	if d.Err != "" {
		return d, errors.New(d.Err)
	}
	return d, nil
}

// FireAt delivers an exploit to a daemon as a well-formed DNS response to
// a synthetic query.
func FireAt(d *victim.Daemon, ex *exploit.Exploit) (kernel.RunResult, error) {
	pkt, err := campaign.AttackResponse(ex)
	if err != nil {
		return kernel.RunResult{}, err
	}
	return d.HandleResponse(pkt)
}

// AutoExploit is the §VII future-work automated generator: given only the
// architecture and the believed protection posture, it performs recon,
// picks the paper's strategy for that posture, builds the payload, and
// verifies it against a staging victim.
func (l *Lab) AutoExploit(arch isa.Arch, p campaign.Protection) (*exploit.Exploit, campaign.DeviceResult, error) {
	kind := exploit.StrategyFor(arch, p.WX, p.ASLR)
	res, err := l.RunAttack(arch, kind, p)
	if err != nil {
		return nil, res, err
	}
	// The verification run above already built (or failed to build) this
	// exact payload; hand back the cached artifact rather than redoing
	// recon and construction. Exploits are read-only once built.
	ex, err := l.Engine().Payload(l.Scenario(arch, kind, p))
	if err != nil {
		return nil, res, err
	}
	return ex, res, nil
}
