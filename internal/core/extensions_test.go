package core

import (
	"testing"

	"connlab/internal/campaign"
	"connlab/internal/dns"
	"connlab/internal/exploit"
	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/victim"
)

// TestAAAADeliveryAlsoWorks: the vulnerable path triggers for Type AAAA
// responses too ("type A, which is a 32-bit IPv4 lookup response, or type
// AAAA, a 128-bit IPv6 lookup response").
func TestAAAADeliveryAlsoWorks(t *testing.T) {
	lab := NewLab()
	tgt, err := lab.Recon(isa.ArchX86S, campaign.LevelWXASLR)
	if err != nil {
		t.Fatalf("recon: %v", err)
	}
	ex, err := exploit.Build(tgt, exploit.KindRopMemcpy)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ex.RType = dns.TypeAAAA
	cfg, prog, _, err := campaign.TargetSetup(isa.ArchX86S, campaign.LevelWXASLR, lab.Build, lab.TargetSeed)
	if err != nil {
		t.Fatalf("target setup: %v", err)
	}
	libc, err := image.BuildLibc(isa.ArchX86S)
	if err != nil {
		t.Fatalf("libc: %v", err)
	}
	d, err := victim.NewDaemonWith(prog, libc, cfg)
	if err != nil {
		t.Fatalf("daemon: %v", err)
	}
	res, err := FireAt(d, ex)
	if err != nil {
		t.Fatalf("fire: %v", err)
	}
	if res.Status != kernel.StatusShell {
		t.Fatalf("AAAA-delivered exploit: %v, want shell", res)
	}
}

// TestPointerLoopHangsVulnerableParser: the ~50-byte self-referential
// pointer packet hangs the unguarded decompressor; the patched build is
// equally vulnerable to the hang (the 1.35 fix only bounds the copy), so
// the pointed contrast is against the SAFE Go-side parser, which rejects
// the loop outright.
func TestPointerLoopHangsVulnerableParser(t *testing.T) {
	ex := exploit.BuildPointerLoopDoS(isa.ArchARMS)
	q := dns.NewQuery(0x99, "tiny.example", dns.TypeA)
	pkt, err := ex.Response(q)
	if err != nil {
		t.Fatalf("craft: %v", err)
	}
	if len(pkt) > 64 {
		t.Errorf("pointer-loop packet is %d bytes, expected tiny", len(pkt))
	}

	d, err := victim.NewDaemon(isa.ArchARMS, victim.BuildOpts{},
		kernel.Config{Seed: 4, InstrBudget: 200_000})
	if err != nil {
		t.Fatalf("daemon: %v", err)
	}
	res, err := d.HandleResponse(pkt)
	if err != nil {
		t.Fatalf("handle: %v", err)
	}
	if res.Status != kernel.StatusTimeout {
		t.Fatalf("status = %v (%v), want timeout (hang)", res.Status, res)
	}
	if !d.Crashed() {
		t.Error("hung daemon not marked dead")
	}

	// The safe decoder refuses the same packet.
	if _, err := dns.Decode(pkt); err == nil {
		t.Error("safe parser accepted the pointer loop")
	}
}

// TestBruteForceASLRLowEntropy: with 8 slide positions the stale-address
// exploit lands within a few dozen respawns; the report records the cost.
func TestBruteForceASLRLowEntropy(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			lab := NewLab()
			rep, err := lab.BruteForceASLR(arch, 8, 100)
			if err != nil {
				t.Fatalf("brute force: %v", err)
			}
			if !rep.Succeeded {
				t.Fatalf("did not land in 100 tries at entropy 8: %s", rep)
			}
			if rep.Tries < 1 {
				t.Errorf("tries = %d", rep.Tries)
			}
		})
	}
}

// TestBruteForceASLRHighEntropyUsuallyFails: at 4096 positions a short
// campaign almost never lands — the defense holds at realistic entropy.
func TestBruteForceASLRHighEntropyUsuallyFails(t *testing.T) {
	lab := NewLab()
	rep, err := lab.BruteForceASLR(isa.ArchX86S, 4096, 20)
	if err != nil {
		t.Fatalf("brute force: %v", err)
	}
	if rep.Succeeded {
		t.Logf("landed in %d tries (possible but ~0.5%% likely)", rep.Tries)
	}
}
