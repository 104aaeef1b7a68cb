package core

import (
	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
)

// PineappleConfig parameterizes the §III-D remote scenario.
type PineappleConfig struct {
	Arch       isa.Arch
	Kind       exploit.Kind
	Protection Protection
	// LegitSignal and RogueSignal set the APs' relative strength; the
	// attack only works while the rogue AP is louder.
	LegitSignal, RogueSignal int
	// Lookups is how many client lookups to drive after association.
	Lookups int
}

// PineappleReport is the outcome of one remote run (see
// campaign.PineappleReport).
type PineappleReport = campaign.PineappleReport

// PineappleScaleConfig parameterizes the population-scale variant of
// the remote scenario: one shared world serving an entire
// station fleet instead of one toy world per device.
type PineappleScaleConfig struct {
	Arch       isa.Arch
	Kind       exploit.Kind
	Protection Protection
	// Stations is the population size.
	Stations int
	// Lookups is the per-station attack-phase lookup count.
	Lookups int
	// VictimEvery makes every k-th station a full victim device
	// (0 = no victims); MaxVictims caps them (0 = 8).
	VictimEvery, MaxVictims int
	// Verbose records the netsim event transcript.
	Verbose bool
}

// RunPineappleScale runs the §III-D scenario against a whole station
// population in one shared world (see campaign.RunPineappleScale).
func (l *Lab) RunPineappleScale(cfg PineappleScaleConfig) (*campaign.ScaleReport, error) {
	return l.engine().RunPineappleScale(campaign.ScaleConfig{
		Stations:    cfg.Stations,
		Lookups:     cfg.Lookups,
		VictimEvery: cfg.VictimEvery,
		MaxVictims:  cfg.MaxVictims,
		Scenario:    l.scenario(cfg.Arch, cfg.Kind, cfg.Protection),
		Verbose:     cfg.Verbose,
	})
}

// RunPineapple reproduces the Wi-Fi Pineapple man-in-the-middle attack
// (§III-D, Fig. 1):
//
//  1. the IoT victim associates to its trusted SSID and resolves names
//     through the legitimate DHCP-assigned resolver (baseline);
//  2. the Pineapple broadcasts the same SSID at a stronger signal and the
//     victim re-associates, receiving the attacker's resolver via DHCP;
//  3. the victim's next DNS lookups are answered by the MITM server with
//     the exploit payload, and the device falls.
//
// The only configuration on the victim is "utilize DHCP and automatic DNS
// server via DHCP", as in the paper. The world is the campaign engine's
// (see campaign.Engine.RunPineapple).
func (l *Lab) RunPineapple(cfg PineappleConfig) (*PineappleReport, error) {
	if cfg.Lookups == 0 {
		cfg.Lookups = 2
	}
	if cfg.LegitSignal == 0 {
		cfg.LegitSignal = 50
	}
	if cfg.RogueSignal == 0 {
		cfg.RogueSignal = 90
	}
	return l.engine().RunPineapple(l.scenario(cfg.Arch, cfg.Kind, cfg.Protection),
		cfg.LegitSignal, cfg.RogueSignal, cfg.Lookups)
}
