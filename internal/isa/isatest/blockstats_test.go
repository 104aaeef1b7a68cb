package isatest

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"connlab/internal/campaign"
	"connlab/internal/core"
	"connlab/internal/dns"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/victim"
)

// TestBlockStatsGolden pins block dispatch's exact bookkeeping on real
// victim runs: every isa.BlockStats counter and the LastHang proof after
// each E8 matrix cell, one CFI-hooked cell, the diversity-broken ARM
// execlp chain (a proven self-loop) and the X2 compression-pointer loop
// on both ISAs. Each row loads a fresh daemon, fires its packet once and
// prints the CPU's lifetime counters, so a change to the block cache,
// chain accounting or hang proof shows up as a line diff against
// testdata/blockstats.golden.
func TestBlockStatsGolden(t *testing.T) {
	lab := core.NewLab()
	var sb strings.Builder
	row := func(name string, d *victim.Daemon, status string) {
		cpu := d.Process().CPU()
		bs, h := cpu.BlockStats(), cpu.LastHang()
		fmt.Fprintf(&sb, "%-32s %-13s translated=%d hits=%d invalidated=%d instrs=%d hangs=%d skipped=%d hang=%#x/%d/%d\n",
			name, status, bs.Translated, bs.Hits, bs.Invalidated, bs.Instrs, bs.Hangs, bs.Skipped, h.PC, h.Period, h.At)
	}
	// A cell whose exploit does not build fires nothing; its row pins the
	// daemon's start-up alone.
	attack := func(arch isa.Arch, kind exploit.Kind, p core.Protection) {
		t.Helper()
		name := fmt.Sprintf("%s/%s/%s", arch, kind, p)
		cfg, opts, ss, err := campaign.TargetSetup(arch, p, lab.Build, lab.TargetSeed)
		if err != nil {
			t.Fatalf("%s: target setup: %v", name, err)
		}
		d, err := victim.NewDaemon(arch, opts, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ss != nil {
			ss.Arm(d.Process())
		}
		tgt, err := lab.Recon(arch, p)
		if err != nil {
			t.Fatalf("%s: recon: %v", name, err)
		}
		status := "no-payload"
		if ex, err := exploit.Build(tgt, kind); err == nil {
			res, err := core.FireAt(d, ex)
			if err != nil {
				t.Fatalf("%s: fire: %v", name, err)
			}
			status = res.Status.String()
		}
		row(name, d, status)
	}

	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		for _, p := range core.PaperLevels() {
			for _, kind := range []exploit.Kind{exploit.KindDoS, exploit.KindCodeInjection,
				exploit.KindRet2Libc, exploit.KindRopExeclp, exploit.KindRopMemcpy} {
				attack(arch, kind, p)
			}
		}
	}
	attack(isa.ArchX86S, exploit.KindRet2Libc, core.Protection{WX: true, CFI: true})
	attack(isa.ArchARMS, exploit.KindRopExeclp, core.Protection{WX: true, DiversitySeed: 30})
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		pkt, err := exploit.BuildPointerLoopDoS(arch).Response(dns.NewQuery(0x1337, "time.iot-vendor.example", dns.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		d, err := victim.NewDaemon(arch, lab.Build, kernel.Config{Seed: lab.TargetSeed, InstrBudget: 200_000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.HandleResponse(pkt)
		if err != nil {
			t.Fatal(err)
		}
		row(fmt.Sprintf("%s/x2-pointer-loop", arch), d, res.Status.String())
	}

	want, err := os.ReadFile("testdata/blockstats.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("block stats diverge from testdata/blockstats.golden; got:\n%s", got)
	}
}
