package core

import (
	"fmt"

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/victim"
)

// BruteForceReport summarizes an ASLR brute-force campaign.
type BruteForceReport struct {
	Arch         isa.Arch
	Kind         exploit.Kind
	EntropyPages int
	// Tries is how many daemon respawns the attacker consumed (each failed
	// try crashes the daemon; an init system restarts it with a fresh
	// ASLR sample).
	Tries     int
	Succeeded bool
}

// String renders a summary line.
func (r BruteForceReport) String() string {
	status := "FAILED"
	if r.Succeeded {
		status = "SHELL"
	}
	return fmt.Sprintf("%-5s %-12s entropy=%d pages: %s after %d tries",
		r.Arch, r.Kind, r.EntropyPages, status, r.Tries)
}

// BruteForceASLR reproduces the brute-force ASLR bypass discussed in the
// paper's related work (the D-Link PoC "able to bypass W⊕X and ASLR on
// MIPS and ARM architectures by brute-force"): the attacker samples libc
// once from a replica and fires the same stale-address exploit at the
// respawning daemon until the randomized libc happens to land on the
// sampled base. Expected tries ≈ entropyPages; strong (4096-page) ASLR
// makes this impractical, weak embedded ASLR does not.
func (l *Lab) BruteForceASLR(arch isa.Arch, entropyPages, maxTries int) (*BruteForceReport, error) {
	kind := exploit.KindRet2Libc
	if arch == isa.ArchARMS {
		kind = exploit.KindRopExeclp
	}
	rep := &BruteForceReport{Arch: arch, Kind: kind, EntropyPages: entropyPages}

	replicaCfg := kernel.Config{
		WX: true, ASLR: true, ASLREntropyPages: entropyPages, Seed: l.ReconSeed,
	}
	tgt, err := exploit.Recon(arch, l.Build, replicaCfg)
	if err != nil {
		return nil, err
	}
	ex, err := exploit.Build(tgt, kind)
	if err != nil {
		return nil, err
	}
	pkt, err := campaign.AttackResponse(ex)
	if err != nil {
		return nil, err
	}

	// One daemon serves every try: the respawn after a crash is a recycle
	// under the next seed, which re-lays libc and the stack out exactly as
	// a fresh load would.
	var d *victim.Daemon
	for try := 1; try <= maxTries; try++ {
		rep.Tries = try
		cfg := kernel.Config{
			WX: true, ASLR: true, ASLREntropyPages: entropyPages,
			Seed: l.TargetSeed + int64(try),
		}
		if d == nil || !d.Recycle(cfg) {
			if d, err = victim.NewDaemon(arch, l.Build, cfg); err != nil {
				return nil, err
			}
		}
		res, err := d.HandleResponse(pkt)
		if err != nil {
			return nil, err
		}
		if res.Status == kernel.StatusShell {
			rep.Succeeded = true
			return rep, nil
		}
	}
	return rep, nil
}
