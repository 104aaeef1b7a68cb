// Package campaign is the lab's mass-compromise engine: it fans a set of
// attack scenarios (arch × exploit kind × protection level × fleet size ×
// seed) out across a worker pool, reconning each distinct configuration
// exactly once through a keyed cache and deriving every device's seed
// deterministically from the campaign root seed, so a campaign's results
// are bit-for-bit identical regardless of worker count or scheduling
// order.
//
// The paper's §III-D scenario is "one payload, many victims" — exploit
// code that recreates a Mirai-style botnet. Measuring defenses against
// that scenario (diversity survival rates, patch-rate thresholds) takes
// thousands of randomized trials per configuration, which a sequential
// runner that redoes victim build + image link + gadget scan per device
// cannot sustain. The engine here is the fast path: internal/core's lab
// runs every experiment on one Engine as Scenario cells, and the §III-D
// rogue-AP world lives here (pineapple.go).
//
// The package also owns the vocabulary shared by every experiment layer:
// Protection (the victim's defensive posture), Outcome (what an attack
// achieved), Classify (kernel result → outcome) and the DeviceResult and
// ScenarioResult every trial comes back as.
package campaign

import (
	"connlab/internal/defense"
	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/victim"
)

// Protection is one protection environment for a victim.
type Protection struct {
	// WX enables W⊕X; ASLR randomizes libc and stack.
	WX, ASLR bool
	// CFI installs the shadow-stack mitigation (§IV).
	CFI bool
	// Canary builds the victim with stack protectors.
	Canary bool
	// DiversitySeed, when non-zero, links the victim with a seeded
	// function-layout permutation and padding (§IV diversity); the
	// function bytes are the pristine build's.
	DiversitySeed int64
	// PIE additionally randomizes the program image (beyond the paper).
	PIE bool
}

// The paper's three §III protection levels.
var (
	LevelNone   = Protection{}
	LevelWX     = Protection{WX: true}
	LevelWXASLR = Protection{WX: true, ASLR: true}
)

// PaperLevels is the §III protection ladder in order.
func PaperLevels() []Protection { return []Protection{LevelNone, LevelWX, LevelWXASLR} }

// String renders the protection compactly.
func (p Protection) String() string {
	if p == (Protection{}) {
		return "none"
	}
	out := ""
	add := func(on bool, s string) {
		if !on {
			return
		}
		if out != "" {
			out += "+"
		}
		out += s
	}
	add(p.WX, "W⊕X")
	add(p.ASLR, "ASLR")
	add(p.PIE, "PIE")
	add(p.CFI, "CFI")
	add(p.Canary, "canary")
	add(p.DiversitySeed != 0, "diversity")
	if out == "" {
		out = "none"
	}
	return out
}

// Outcome classifies what an attack achieved.
type Outcome string

// Attack outcomes.
const (
	// OutcomeShell is remote code execution: a root shell spawned.
	OutcomeShell Outcome = "SHELL"
	// OutcomeCrash is denial of service: the daemon died without giving
	// the attacker execution.
	OutcomeCrash Outcome = "CRASH"
	// OutcomeBlocked means a mitigation detected and stopped the attack
	// (CFI veto or canary abort).
	OutcomeBlocked Outcome = "BLOCKED"
	// OutcomeNoEffect means the victim survived unharmed.
	OutcomeNoEffect Outcome = "NO-EFFECT"
	// OutcomeBuildFail means no payload could be constructed for the
	// combination (e.g. ret2libc on a register-argument architecture).
	OutcomeBuildFail Outcome = "NO-PAYLOAD"
	// OutcomeError means the trial itself failed (infrastructure, not
	// verdict); the device's Err field holds the cause.
	OutcomeError Outcome = "ERROR"
)

// Classify maps a kernel run result to an attack outcome.
func Classify(res kernel.RunResult) (Outcome, string) {
	switch res.Status {
	case kernel.StatusShell:
		return OutcomeShell, res.String()
	case kernel.StatusFault, kernel.StatusTimeout:
		return OutcomeCrash, res.String()
	case kernel.StatusCFI, kernel.StatusAborted:
		return OutcomeBlocked, res.String()
	case kernel.StatusReturned, kernel.StatusExited:
		return OutcomeNoEffect, res.String()
	default:
		return OutcomeNoEffect, res.String()
	}
}

// TargetSetup renders a Protection for one device load outside a
// campaign: the kernel config under the machine seed, the program unit to
// load (opts with the protection's canary folded in), and a fresh shadow
// stack that, when non-nil, must be armed on the loaded process. It is the
// engine's own rendering on a throwaway engine, so the unit it builds is
// the one the caller loads.
func TargetSetup(arch isa.Arch, p Protection, opts victim.BuildOpts, seed int64) (kernel.Config, *image.Unit, *defense.ShadowStack, error) {
	return New(Config{}).targetSetup(Scenario{Arch: arch, Protection: p, Build: opts}, seed, false)
}
