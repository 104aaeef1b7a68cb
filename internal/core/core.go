// Package core orchestrates the paper's experiments end to end: it builds
// victims under configurable protection levels, generates the matching
// exploits from attacker-side reconnaissance, fires them, and classifies
// outcomes. It is the library's top-level API: the §III attack matrix
// (RunMatrix), the §III-D Wi-Fi Pineapple remote scenario (RunPineapple),
// the §IV mitigation evaluation (EvaluateMitigations), and the §VII
// future-work automated exploit generator (AutoExploit).
package core

import (
	"errors"
	"fmt"

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

// Protection is one protection environment for a victim. It lives in
// internal/campaign (the engine layer); the alias keeps core's historical
// API intact.
type Protection = campaign.Protection

// The paper's three §III protection levels.
var (
	LevelNone   = campaign.LevelNone
	LevelWX     = campaign.LevelWX
	LevelWXASLR = campaign.LevelWXASLR
)

// PaperLevels is the §III protection ladder in order.
func PaperLevels() []Protection { return campaign.PaperLevels() }

// Outcome classifies what an attack achieved.
type Outcome = campaign.Outcome

// Attack outcomes (see internal/campaign for the definitions).
const (
	OutcomeShell     = campaign.OutcomeShell
	OutcomeCrash     = campaign.OutcomeCrash
	OutcomeBlocked   = campaign.OutcomeBlocked
	OutcomeNoEffect  = campaign.OutcomeNoEffect
	OutcomeBuildFail = campaign.OutcomeBuildFail
)

// AttackResult is one cell of the experiment matrix.
type AttackResult struct {
	Arch       isa.Arch
	Kind       exploit.Kind
	Protection Protection
	Outcome    Outcome
	// Detail is a one-line explanation (fault, shell syscall, veto reason).
	Detail string
	// Run is the raw kernel result when the attack fired.
	Run kernel.RunResult
	// Trace holds the hijack flight-recorder events when tracing is armed
	// (telemetry.EnableTrace / the -trace flag): the exact control-transfer
	// walk — rets, pop-pc, calls, the final syscall — of the attempt.
	Trace []telemetry.ControlEvent
}

// String renders a matrix row.
func (r AttackResult) String() string {
	return fmt.Sprintf("%-5s %-15s %-12s %-10s %s",
		r.Arch, r.Kind, r.Protection, r.Outcome, r.Detail)
}

// Lab runs attack experiments with reproducible seeds.
type Lab struct {
	// ReconSeed seeds the attacker's replica; TargetSeed seeds the real
	// target. Distinct seeds mean distinct ASLR samples, as in reality.
	ReconSeed, TargetSeed int64
	// Build selects the victim variant (vulnerable 1.34 by default).
	Build victim.BuildOpts
	// Workers sets the campaign worker-pool size for RunFleet/RunMatrix;
	// 0 means GOMAXPROCS. The count never changes results, only wall
	// clock.
	Workers int

	reconBuild *victim.BuildOpts

	// eng is the lab's persistent campaign engine: recon, payloads,
	// program units and crafted packets cached across RunAttack /
	// AutoExploit / RunMatrix calls. Recreated when the seeds or worker
	// count change (engCfg remembers what it was built with); the victim
	// build is part of every cache key, so Build changes need no reset.
	eng    *campaign.Engine
	engCfg campaign.Config
}

// NewLab returns a lab with the default seeds.
func NewLab() *Lab { return &Lab{ReconSeed: 1001, TargetSeed: 2002} }

// SetReconBuild makes the attacker replicate a different firmware than
// the deployed one — e.g. the attacker recons vulnerable 1.34 while the
// real target runs patched 1.35.
func (l *Lab) SetReconBuild(b victim.BuildOpts) { l.reconBuild = &b }

// engine returns the lab's persistent campaign engine, wired to the
// current seeds and worker count.
func (l *Lab) engine() *campaign.Engine {
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

// scenario renders one lab attack cell as a single-device campaign
// scenario.
func (l *Lab) scenario(arch isa.Arch, kind exploit.Kind, p Protection) campaign.Scenario {
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
func (l *Lab) Recon(arch isa.Arch, p Protection) (*exploit.Target, error) {
	return l.engine().Recon(l.scenario(arch, "", p))
}

// RunAttack recons, builds one exploit kind, and fires it at a fresh
// victim under the protection level. All attacker-side artifacts come
// from the lab engine's caches, so repeated attacks on one configuration
// pay for recon, payload construction and packet assembly once.
func (l *Lab) RunAttack(arch isa.Arch, kind exploit.Kind, p Protection) (AttackResult, error) {
	out := AttackResult{Arch: arch, Kind: kind, Protection: p}
	d := l.engine().RunOne(l.scenario(arch, kind, p))
	if d.Err != "" {
		return out, errors.New(d.Err)
	}
	out.Outcome, out.Detail, out.Run = d.Outcome, d.Detail, d.Run
	out.Trace = d.Trace
	return out, nil
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

// Classify maps a kernel run result to an attack outcome.
func Classify(res kernel.RunResult) (Outcome, string) { return campaign.Classify(res) }

// RunMatrix reproduces the §III experiment matrix (experiment E8): every
// exploit kind against every paper protection level on both
// architectures. The diagonal of working exploits and the off-diagonal
// failures (injection vs W⊕X, ret2libc vs ASLR) are the paper's central
// result.
//
// The matrix delegates to the campaign engine: all 30 cells fan out
// across the lab's worker pool, each (arch, posture) configuration is
// reconned once instead of once per kind, and results come back in the
// fixed arch → level → kind order regardless of scheduling.
func (l *Lab) RunMatrix() ([]AttackResult, error) {
	kinds := []exploit.Kind{
		exploit.KindDoS,
		exploit.KindCodeInjection,
		exploit.KindRet2Libc,
		exploit.KindRopExeclp,
		exploit.KindRopMemcpy,
	}
	var scenarios []campaign.Scenario
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		for _, p := range PaperLevels() {
			for _, kind := range kinds {
				scenarios = append(scenarios, l.scenario(arch, kind, p))
			}
		}
	}
	rep, err := l.engine().Run(scenarios)
	if err != nil {
		return nil, fmt.Errorf("matrix: %w", err)
	}
	out := make([]AttackResult, len(rep.Scenarios))
	for i := range rep.Scenarios {
		sr := &rep.Scenarios[i]
		d := &sr.Devices[0]
		out[i] = AttackResult{
			Arch: sr.Scenario.Arch, Kind: sr.Scenario.Kind, Protection: sr.Scenario.Protection,
			Outcome: d.Outcome, Detail: d.Detail, Run: d.Run,
		}
	}
	return out, nil
}

// AutoExploit is the §VII future-work automated generator: given only the
// architecture and the believed protection posture, it performs recon,
// picks the paper's strategy for that posture, builds the payload, and
// verifies it against a staging victim.
func (l *Lab) AutoExploit(arch isa.Arch, p Protection) (*exploit.Exploit, AttackResult, error) {
	kind := exploit.StrategyFor(arch, p.WX, p.ASLR)
	res, err := l.RunAttack(arch, kind, p)
	if err != nil {
		return nil, res, err
	}
	// The verification run above already built (or failed to build) this
	// exact payload; hand back the cached artifact rather than redoing
	// recon and construction. Exploits are read-only once built.
	ex, err := l.engine().Payload(l.scenario(arch, kind, p))
	if err != nil {
		return nil, res, err
	}
	return ex, res, nil
}
