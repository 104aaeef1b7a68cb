// Package connlab_test holds the benchmark harness that regenerates every
// paper experiment (see DESIGN.md's experiment index and EXPERIMENTS.md
// for recorded outputs): one BenchmarkE<n> per table/figure-equivalent,
// plus micro-benchmarks of the substrates (emulator, DNS codec, gadget
// scan, label encoding).
//
// Run with:
//
//	go test -bench=. -benchmem
package connlab_test

import (
	"fmt"
	"testing"

	"connlab/internal/campaign"
	"connlab/internal/core"
	"connlab/internal/dns"
	"connlab/internal/dnsserver"
	"connlab/internal/exploit"
	"connlab/internal/gadget"
	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
	"connlab/internal/kernel"
	"connlab/internal/mem"
	"connlab/internal/netsim"
	"connlab/internal/scenario"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

// benchLab returns a lab with the default reproducible seeds.
func benchLab() *core.Lab { return core.NewLab() }

// requireOutcome fails the benchmark if an attack stops reproducing.
func requireOutcome(b *testing.B, r campaign.DeviceResult, err error, want campaign.Outcome) {
	b.Helper()
	if err != nil {
		b.Fatalf("attack: %v", err)
	}
	if r.Outcome != want {
		b.Fatalf("outcome %s (%s), want %s", r.Outcome, r.Detail, want)
	}
}

// BenchmarkE1_DoSCrash regenerates E1: the §II denial of service against
// the vulnerable parser (one full recon-free crash per iteration).
func BenchmarkE1_DoSCrash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := victim.NewDaemon(isa.ArchX86S, victim.BuildOpts{}, kernel.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.FireAt(d, exploit.BuildDoS(isa.ArchX86S))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Crashed() {
			b.Fatalf("no crash: %v", res)
		}
	}
}

// BenchmarkE2_X86CodeInjection regenerates E2 (§III-A1): recon + payload
// + root shell, no protections.
func BenchmarkE2_X86CodeInjection(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		r, err := lab.RunAttack(isa.ArchX86S, exploit.KindCodeInjection, campaign.LevelNone)
		requireOutcome(b, r, err, campaign.OutcomeShell)
	}
}

// BenchmarkE3_ARMCodeInjection regenerates E3 (§III-A2).
func BenchmarkE3_ARMCodeInjection(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		r, err := lab.RunAttack(isa.ArchARMS, exploit.KindCodeInjection, campaign.LevelNone)
		requireOutcome(b, r, err, campaign.OutcomeShell)
	}
}

// BenchmarkE4_X86Ret2Libc regenerates E4 (§III-B1): W⊕X bypass.
func BenchmarkE4_X86Ret2Libc(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		r, err := lab.RunAttack(isa.ArchX86S, exploit.KindRet2Libc, campaign.LevelWX)
		requireOutcome(b, r, err, campaign.OutcomeShell)
	}
}

// BenchmarkE5_ARMRopExeclp regenerates E5 (§III-B2, Listing 2).
func BenchmarkE5_ARMRopExeclp(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		r, err := lab.RunAttack(isa.ArchARMS, exploit.KindRopExeclp, campaign.LevelWX)
		requireOutcome(b, r, err, campaign.OutcomeShell)
	}
}

// BenchmarkE6_X86RopMemcpyChain regenerates E6 (§III-C1, Listings 3-4):
// the W⊕X+ASLR bypass.
func BenchmarkE6_X86RopMemcpyChain(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		r, err := lab.RunAttack(isa.ArchX86S, exploit.KindRopMemcpy, campaign.LevelWXASLR)
		requireOutcome(b, r, err, campaign.OutcomeShell)
	}
}

// BenchmarkE7_ARMRopBlxChain regenerates E7 (§III-C2, Listing 5).
func BenchmarkE7_ARMRopBlxChain(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		r, err := lab.RunAttack(isa.ArchARMS, exploit.KindRopMemcpy, campaign.LevelWXASLR)
		requireOutcome(b, r, err, campaign.OutcomeShell)
	}
}

// BenchmarkE8_AttackMatrix regenerates E8: the full 30-cell §III matrix.
func BenchmarkE8_AttackMatrix(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		if _, err := lab.RunExperiment("e8"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_PineappleRemote regenerates E9 (§III-D, Fig. 1): rogue AP,
// DHCP hijack, remote exploit, end to end.
func BenchmarkE9_PineappleRemote(b *testing.B) {
	lab := benchLab()
	cell := lab.Scenario(isa.ArchARMS, exploit.KindRopMemcpy, campaign.LevelWXASLR)
	for i := 0; i < b.N; i++ {
		rep, err := lab.Engine().RunPineapple(cell, 50, 90, 2)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Outcome != campaign.OutcomeShell {
			b.Fatalf("outcome %s", rep.Outcome)
		}
	}
}

// BenchmarkE10_Mitigations regenerates E10: the §IV mitigation table
// (3 diversity trials per iteration).
func BenchmarkE10_Mitigations(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		if _, err := lab.EvaluateMitigations(3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11_OtherVulns regenerates E11 (§V): the dnsmasq-analog
// retarget plus the HTTP-victim injection.
func BenchmarkE11_OtherVulns(b *testing.B) {
	lab := benchLab()
	lab.Build.Variant = victim.VariantDnsmasq
	for i := 0; i < b.N; i++ {
		_, res, err := lab.AutoExploit(isa.ArchARMS, campaign.LevelWXASLR)
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome != campaign.OutcomeShell {
			b.Fatalf("dnsmasq outcome %s", res.Outcome)
		}
		tgt, err := exploit.ReconHTTP(kernel.Config{Seed: lab.ReconSeed})
		if err != nil {
			b.Fatal(err)
		}
		req, err := exploit.BuildHTTPInjection(tgt)
		if err != nil {
			b.Fatal(err)
		}
		d, err := victim.NewHTTPDaemon(kernel.Config{Seed: lab.TargetSeed})
		if err != nil {
			b.Fatal(err)
		}
		res2, err := d.HandleRequest(req)
		if err != nil {
			b.Fatal(err)
		}
		if res2.Status != kernel.StatusShell {
			b.Fatalf("http outcome %v", res2)
		}
	}
}

// BenchmarkE12_AutoExploitGen regenerates E12 (§VII): the automated
// generator across all six (arch, posture) combinations.
func BenchmarkE12_AutoExploitGen(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
			for _, p := range campaign.PaperLevels() {
				_, res, err := lab.AutoExploit(arch, p)
				if err != nil {
					b.Fatal(err)
				}
				if res.Outcome != campaign.OutcomeShell {
					b.Fatalf("%s/%s: %s", arch, p, res.Outcome)
				}
			}
		}
	}
}

// --- telemetry-overhead benchmarks ---
//
// The metrics-on twins of E2 and E10 measure the cost of live telemetry
// on full exploit runs; EXPERIMENTS.md records the on/off deltas. Enable
// precedes lab construction because instrumented components take their
// shard handles when built.

// BenchmarkE2_X86CodeInjectionTelemetry is E2 with metrics collection on.
func BenchmarkE2_X86CodeInjectionTelemetry(b *testing.B) {
	telemetry.Enable()
	defer telemetry.Disable()
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		r, err := lab.RunAttack(isa.ArchX86S, exploit.KindCodeInjection, campaign.LevelNone)
		requireOutcome(b, r, err, campaign.OutcomeShell)
	}
	if telemetry.TakeSnapshot().Counters[telemetry.CtrEmuRuns.Name()] == 0 {
		b.Fatal("telemetry collected nothing")
	}
}

// BenchmarkE10_MitigationsTelemetry is E10 with metrics collection on.
func BenchmarkE10_MitigationsTelemetry(b *testing.B) {
	telemetry.Enable()
	defer telemetry.Disable()
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		if _, err := lab.EvaluateMitigations(3); err != nil {
			b.Fatal(err)
		}
	}
	if telemetry.TakeSnapshot().Counters[telemetry.CtrEmuRuns.Name()] == 0 {
		b.Fatal("telemetry collected nothing")
	}
}

// BenchmarkSnapshotTake measures the read side the live observability
// surface leans on: TakeSnapshot merges every shard's counters and
// histograms and copies the span and event tails. The state is
// populated the way a campaign leaves it — counters spread over many
// handles, histogram samples across the bucket range, full span and
// event rings.
func BenchmarkSnapshotTake(b *testing.B) {
	telemetry.Enable()
	defer telemetry.Disable()
	for i := 0; i < 64; i++ {
		h := telemetry.Handle()
		h.Add(telemetry.CtrEmuRuns, uint64(i))
		h.Add(telemetry.CtrEmuInstr, uint64(i)*1000)
		h.Observe(telemetry.HistEmuRunInstr, uint64(1)<<(uint(i)%20))
		h.Observe(telemetry.HistNetEpochBatch, uint64(i))
	}
	for i := 0; i < 512; i++ {
		telemetry.RecordSpan(telemetry.Span{Scenario: "bench", Device: "iot",
			Stage: "deliver", Worker: i % 8, Start: int64(i), Dur: 10, Attempt: uint64(i)})
		telemetry.LogEvent(telemetry.EvInfo, "campaign", "shell", "iot", uint64(i), 1, 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := telemetry.TakeSnapshot()
		if snap.Counters[telemetry.CtrEmuRuns.Name()] == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// --- campaign engine benchmarks ---

// campaignBenchScenario is the fleet workload both campaign benchmarks
// run: ten devices under one configuration, direct delivery, the lab's
// historical per-device seed schedule.
const campaignBenchDevices = 10

// BenchmarkCampaignFleet measures the engine-backed fleet path: recon,
// payload construction, and the victim program build happen once per
// configuration and every device is served from the caches.
func BenchmarkCampaignFleet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := campaign.New(campaign.Config{Workers: 1})
		rep, err := eng.Run([]campaign.Scenario{{
			Arch: isa.ArchX86S, Kind: exploit.KindCodeInjection,
			Devices: campaignBenchDevices, TargetSeed: 2002,
		}})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Owned != campaignBenchDevices {
			b.Fatalf("owned = %d, want %d", rep.Owned, campaignBenchDevices)
		}
		if rep.ReconCache.Builds != 1 {
			b.Fatalf("recon builds = %d, want 1", rep.ReconCache.Builds)
		}
	}
}

// BenchmarkCampaignFleetSequentialBaseline measures the same fleet the
// way the pre-engine fleet runner did it: reconnaissance, payload
// construction, and the victim build redone from scratch for every
// device. The engine's speedup over this baseline is the recon cache's
// contribution (EXPERIMENTS.md records the measured ratio).
func BenchmarkCampaignFleetSequentialBaseline(b *testing.B) {
	q := dns.NewQuery(0x1337, "time.iot-vendor.example", dns.TypeA)
	for i := 0; i < b.N; i++ {
		owned := 0
		for di := 0; di < campaignBenchDevices; di++ {
			tgt, err := exploit.Recon(isa.ArchX86S, victim.BuildOpts{},
				kernel.Config{Seed: 1001})
			if err != nil {
				b.Fatal(err)
			}
			ex, err := exploit.Build(tgt, exploit.KindCodeInjection)
			if err != nil {
				b.Fatal(err)
			}
			d, err := victim.NewDaemon(isa.ArchX86S, victim.BuildOpts{},
				kernel.Config{Seed: 2002 + int64(100+di)})
			if err != nil {
				b.Fatal(err)
			}
			pkt, err := ex.Response(q)
			if err != nil {
				b.Fatal(err)
			}
			res, err := d.HandleResponse(pkt)
			if err != nil {
				b.Fatal(err)
			}
			if res.Status == kernel.StatusShell {
				owned++
			}
		}
		if owned != campaignBenchDevices {
			b.Fatalf("owned = %d, want %d", owned, campaignBenchDevices)
		}
	}
}

// BenchmarkCampaignMatrix measures the engine running the full 30-cell
// E8 grid in one campaign (recon cached across cells that share a
// posture).
func BenchmarkCampaignMatrix(b *testing.B) {
	kinds := []exploit.Kind{
		exploit.KindDoS, exploit.KindCodeInjection, exploit.KindRet2Libc,
		exploit.KindRopExeclp, exploit.KindRopMemcpy,
	}
	var scenarios []campaign.Scenario
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		for _, p := range campaign.PaperLevels() {
			for _, k := range kinds {
				scenarios = append(scenarios, campaign.Scenario{
					Arch: arch, Kind: k, Protection: p, TargetSeed: 2002,
				})
			}
		}
	}
	for i := 0; i < b.N; i++ {
		eng := campaign.New(campaign.Config{})
		rep, err := eng.Run(scenarios)
		if err != nil {
			b.Fatal(err)
		}
		if rep.TotalDevices() != 30 {
			b.Fatalf("devices = %d, want 30", rep.TotalDevices())
		}
	}
}

// mitigationSweepAttacks are the six working per-level exploits the §IV
// mitigations are measured against (the E10 set).
var mitigationSweepAttacks = []struct {
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

// BenchmarkMitigationSweepOp measures one cold §IV sweep, the shape of
// connbench's mitigation-sweep op: a fresh engine runs the six attacks
// under CFI, canary and full PIE with 10 devices each, plus 20 diversity
// seeds with one device each — 300 trials, where the engine's one-off
// costs (recon probes, first daemon loads, diversity relinks) weigh as
// much as emulation.
func BenchmarkMitigationSweepOp(b *testing.B) {
	mutations := []func(campaign.Protection) campaign.Protection{
		func(p campaign.Protection) campaign.Protection { p.CFI = true; return p },
		func(p campaign.Protection) campaign.Protection { p.Canary = true; return p },
		func(p campaign.Protection) campaign.Protection { p.PIE, p.ASLR = true, true; return p },
	}
	const root = 1
	var cells []campaign.Scenario
	for _, m := range mutations {
		for _, a := range mitigationSweepAttacks {
			cells = append(cells, campaign.Scenario{Arch: a.arch, Kind: a.kind, Protection: m(a.base), Devices: 10})
		}
	}
	for _, a := range mitigationSweepAttacks {
		for k := 0; k < 20; k++ {
			p := a.base
			p.DiversitySeed = campaign.DeriveSeed(root, 0x5EED_0002, uint64(k))
			cells = append(cells, campaign.Scenario{Arch: a.arch, Kind: a.kind, Protection: p})
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := campaign.New(campaign.Config{RootSeed: root}).Run(cells)
		if err != nil {
			b.Fatal(err)
		}
		if n := rep.TotalDevices(); n != 300 {
			b.Fatalf("devices = %d, want 300", n)
		}
	}
}

// BenchmarkMatrixFleetOp measures one cold matrix-fleet op, the shape
// of connbench's matrix-fleet workload: the paper matrix compiled from
// connman.scn with 40 devices per cell (1 200 trials) on a fresh engine,
// where emulation and daemon recycling dominate and recon is amortised.
func BenchmarkMatrixFleetOp(b *testing.B) {
	spec, err := scenario.Load("connman")
	if err != nil {
		b.Fatal(err)
	}
	cells, err := scenario.Compile(spec, scenario.CompileOpts{Devices: 40})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := campaign.New(campaign.Config{RootSeed: 1}).Run(cells)
		if err != nil {
			b.Fatal(err)
		}
		if n := rep.TotalDevices(); n != 1200 {
			b.Fatalf("devices = %d, want 1200", n)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkRecon measures one full attacker-side reconnaissance (replica
// build + link + gadget scan + frame discovery) per iteration, under the
// hardest posture (W⊕X+ASLR). This is the dominant per-trial cost the
// campaign engine amortizes; the interpreter hot path is what it spends
// its time in.
func BenchmarkRecon(b *testing.B) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		b.Run(string(arch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exploit.Recon(arch, victim.BuildOpts{},
					kernel.Config{WX: true, ASLR: true, Seed: 1001}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStepX86S measures one x86s interpreter step on a hot loop
// mixing memory loads/stores, ALU, stack traffic, and a branch — the
// instruction mix of the emulated parser.
func BenchmarkStepX86S(b *testing.B) {
	m := mem.New()
	text, err := m.Map("text", 0x1000, 0x1000, mem.PermRX)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Map("data", 0x4000, 0x1000, mem.PermRW); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Map("stack", 0x8000, 0x1000, mem.PermRW); err != nil {
		b.Fatal(err)
	}
	a := x86s.NewAsm()
	a.Label("loop").
		MovRM(x86s.EAX, x86s.EBX, 0).
		AddRI(x86s.EAX, 1).
		MovMR(x86s.EBX, 0, x86s.EAX).
		PushR(x86s.EAX).
		PopR(x86s.EDX).
		Jmp("loop")
	code, err := a.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	copy(text.Data, code.Bytes)
	c := x86s.New(m)
	c.SetPC(0x1000)
	c.SetSP(0x8F00)
	c.SetReg(x86s.EBX, 0x4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := c.Step(); ev.Kind != isa.EventRetired {
			b.Fatalf("step: %v", ev)
		}
	}
}

// BenchmarkStepARMS is the arms analog of BenchmarkStepX86S.
func BenchmarkStepARMS(b *testing.B) {
	m := mem.New()
	text, err := m.Map("text", 0x1000, 0x1000, mem.PermRX)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Map("data", 0x4000, 0x1000, mem.PermRW); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Map("stack", 0x8000, 0x1000, mem.PermRW); err != nil {
		b.Fatal(err)
	}
	a := arms.NewAsm()
	a.Label("loop").
		Ldr(arms.R0, arms.R4, 0).
		AddI(arms.R0, arms.R0, 1).
		Str(arms.R0, arms.R4, 0).
		Push(arms.R0, arms.R1).
		Pop(arms.R0, arms.R1).
		BAlways("loop")
	code, err := a.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	copy(text.Data, code.Bytes)
	c := arms.New(m)
	c.SetPC(0x1000)
	c.SetSP(0x8F00)
	c.SetReg(arms.R4, 0x4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := c.Step(); ev.Kind != isa.EventRetired {
			b.Fatalf("step: %v", ev)
		}
	}
}

// BenchmarkBlockStepX86S measures block dispatch over the same hot loop
// as BenchmarkStepX86S: one op is one StepBlock call chaining 100 loop
// iterations (600 instructions), with instrs/op and ns/instr reported so
// the speedup over single-step is read directly off the ns/instr metric.
func BenchmarkBlockStepX86S(b *testing.B) {
	m := mem.New()
	text, err := m.Map("text", 0x1000, 0x1000, mem.PermRX)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Map("data", 0x4000, 0x1000, mem.PermRW); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Map("stack", 0x8000, 0x1000, mem.PermRW); err != nil {
		b.Fatal(err)
	}
	a := x86s.NewAsm()
	a.Label("loop").
		MovRM(x86s.EAX, x86s.EBX, 0).
		AddRI(x86s.EAX, 1).
		MovMR(x86s.EBX, 0, x86s.EAX).
		PushR(x86s.EAX).
		PopR(x86s.EDX).
		Jmp("loop")
	code, err := a.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	copy(text.Data, code.Bytes)
	c := x86s.New(m)
	c.SetPC(0x1000)
	c.SetSP(0x8F00)
	c.SetReg(x86s.EBX, 0x4000)
	for i := 0; i < 8; i++ {
		if ev := c.StepBlock(600); ev.Kind != isa.EventRetired {
			b.Fatalf("warm: %v", ev)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := c.InstrCount()
	for i := 0; i < b.N; i++ {
		if ev := c.StepBlock(600); ev.Kind != isa.EventRetired {
			b.Fatalf("step block: %v", ev)
		}
	}
	b.StopTimer()
	instrs := c.InstrCount() - start
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkBlockStepARMS is the arms analog of BenchmarkBlockStepX86S.
func BenchmarkBlockStepARMS(b *testing.B) {
	m := mem.New()
	text, err := m.Map("text", 0x1000, 0x1000, mem.PermRX)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Map("data", 0x4000, 0x1000, mem.PermRW); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Map("stack", 0x8000, 0x1000, mem.PermRW); err != nil {
		b.Fatal(err)
	}
	a := arms.NewAsm()
	a.Label("loop").
		Ldr(arms.R0, arms.R4, 0).
		AddI(arms.R0, arms.R0, 1).
		Str(arms.R0, arms.R4, 0).
		Push(arms.R0, arms.R1).
		Pop(arms.R0, arms.R1).
		BAlways("loop")
	code, err := a.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	copy(text.Data, code.Bytes)
	c := arms.New(m)
	c.SetPC(0x1000)
	c.SetSP(0x8F00)
	c.SetReg(arms.R4, 0x4000)
	for i := 0; i < 8; i++ {
		if ev := c.StepBlock(600); ev.Kind != isa.EventRetired {
			b.Fatalf("warm: %v", ev)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := c.InstrCount()
	for i := 0; i < b.N; i++ {
		if ev := c.StepBlock(600); ev.Kind != isa.EventRetired {
			b.Fatalf("step block: %v", ev)
		}
	}
	b.StopTimer()
	instrs := c.InstrCount() - start
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkEmulatorThroughput measures emulated instructions per second
// on the benign parse path (both architectures).
func BenchmarkEmulatorThroughput(b *testing.B) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		b.Run(string(arch), func(b *testing.B) {
			d, err := victim.NewDaemon(arch, victim.BuildOpts{}, kernel.Config{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			q := dns.NewQuery(1, "bench.example", dns.TypeA)
			resp := dns.NewResponse(q)
			resp.Answers = []dns.RR{dns.A("bench.example", 60, [4]byte{1, 2, 3, 4})}
			pkt, err := resp.Encode()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var instrs uint64
			for i := 0; i < b.N; i++ {
				res, err := d.HandleResponse(pkt)
				if err != nil {
					b.Fatal(err)
				}
				instrs += res.Instructions
			}
			b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
		})
	}
}

// BenchmarkDNSCodec measures wire-format encode+decode round trips.
func BenchmarkDNSCodec(b *testing.B) {
	q := dns.NewQuery(77, "a.long.name.for.the.codec.example.com", dns.TypeA)
	resp := dns.NewResponse(q)
	resp.Answers = []dns.RR{
		dns.A(q.Questions[0].Name, 300, [4]byte{10, 0, 0, 1}),
		dns.A(q.Questions[0].Name, 300, [4]byte{10, 0, 0, 2}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err := resp.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dns.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGadgetScan measures a full ropper-style scan of the victim
// image.
func BenchmarkGadgetScan(b *testing.B) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		b.Run(string(arch), func(b *testing.B) {
			u, err := victim.BuildProgram(arch, victim.BuildOpts{})
			if err != nil {
				b.Fatal(err)
			}
			img, err := image.Link(u, image.DefaultProgramLayout(arch), image.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := gadget.NewFinder(img)
				if len(f.All()) == 0 {
					b.Fatal("no gadgets")
				}
			}
		})
	}
}

// BenchmarkLabelEncode measures the payload label-segmentation search for
// the hardest chain (the x86 memcpy chain).
func BenchmarkLabelEncode(b *testing.B) {
	tgt, err := exploit.Recon(isa.ArchX86S, victim.BuildOpts{},
		kernel.Config{WX: true, ASLR: true, Seed: 1001})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exploit.BuildRopMemcpyX86(tgt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- netsim + zone-trie benchmarks ---

// benchPumpStation re-sends its ping to the sink until its round budget
// is spent, so one Run call drives the whole population through every
// round in lock-stepped epochs — the scale scenario's traffic shape
// without the DNS layer, leaving the pump itself as the measured cost.
type benchPumpStation struct {
	sock      *netsim.UDPSocket
	dst       netsim.Addr
	remaining int
}

// benchPing is shared by every send: the network copies payloads on
// enqueue, so reuse is safe and keeps the allocator out of the
// measurement.
var benchPing = []byte("ping")

func (st *benchPumpStation) onReply(netsim.Datagram) {
	if st.remaining > 0 {
		st.remaining--
		st.sock.SendTo(st.dst, benchPing)
	}
}

// BenchmarkNetsimPump measures shared-world delivery throughput: every
// station ping-pongs with a central sink for a fixed number of rounds
// per op. datagrams/sec is the headline metric. Rows with a reply size
// answer each ping with that many bytes, the size of a MITM exploit
// answer, instead of echoing it. The dhcp row's stations take DHCP
// leases from an access point instead of static addresses, so their
// replies are routed through the AP's lease table, as pineapple-pop's
// are.
func BenchmarkNetsimPump(b *testing.B) {
	for _, cfg := range []struct {
		stations, rounds, reply int
		dhcp                    bool
	}{
		{10000, 2, 0, false}, {100000, 1, 0, false}, {10000, 2, 1300, false}, {10000, 2, 0, true},
	} {
		name := fmt.Sprintf("st%d", cfg.stations)
		if cfg.reply > 0 {
			name += fmt.Sprintf("-reply%d", cfg.reply)
		}
		if cfg.dhcp {
			name += "-dhcp"
		}
		b.Run(name, func(b *testing.B) {
			n := netsim.New()
			sinkHost, err := n.AddHost("sink", netsim.IP{10, 0, 0, 1})
			if err != nil {
				b.Fatal(err)
			}
			sinkSock, err := sinkHost.Bind(7, nil)
			if err != nil {
				b.Fatal(err)
			}
			reply := make([]byte, cfg.reply)
			echo := func(dg netsim.Datagram) {
				if cfg.reply > 0 {
					sinkSock.SendTo(dg.Src, reply)
				} else {
					sinkSock.SendTo(dg.Src, dg.Payload)
				}
			}
			if _, err := sinkHost.Bind(8, echo); err != nil {
				b.Fatal(err)
			}
			dst := netsim.Addr{IP: sinkHost.IP, Port: 8}
			if cfg.dhcp {
				n.AddAP(&netsim.AccessPoint{Name: "ap", SSID: "net", PoolBase: netsim.IP{20, 0, 0, 0}})
			}
			stations := make([]*benchPumpStation, cfg.stations)
			for i := range stations {
				ip := netsim.IP{20, byte(i >> 16), byte(i >> 8), byte(i)}
				if cfg.dhcp {
					ip = netsim.IP{} // leased below
				}
				h, err := n.AddHost(fmt.Sprintf("st%06d", i), ip)
				if err != nil {
					b.Fatal(err)
				}
				if cfg.dhcp {
					if _, err := h.Station("net").Associate(); err != nil {
						b.Fatal(err)
					}
				}
				st := &benchPumpStation{dst: dst}
				if st.sock, err = h.BindEphemeral(st.onReply); err != nil {
					b.Fatal(err)
				}
				stations[i] = st
			}
			perOp := cfg.stations * cfg.rounds * 2
			budget := perOp + 64
			b.ReportAllocs()
			b.ResetTimer()
			start := n.Delivered
			for i := 0; i < b.N; i++ {
				for _, st := range stations {
					st.remaining = cfg.rounds - 1
					st.sock.SendTo(dst, benchPing)
				}
				if got := n.Run(budget); got != perOp {
					b.Fatalf("delivered %d datagrams, want %d", got, perOp)
				}
			}
			b.StopTimer()
			dgrams := n.Delivered - start
			b.ReportMetric(float64(dgrams)/b.Elapsed().Seconds(), "dgrams/sec")
		})
	}
}

// BenchmarkZoneLookup measures one fast-path zone decision — question
// wire bytes in, IP out — on a population-scale zone. trie-wire is the
// resolver's live path; map-decode is the path it replaced (ParseView +
// name extraction + map probe) kept as the comparison baseline.
func BenchmarkZoneLookup(b *testing.B) {
	const names = 10000
	trie := dnsserver.NewZoneTrie()
	zone := make(map[string][4]byte, names)
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("st%06d.iot-vendor.example", i)
		ip := [4]byte{20, byte(i >> 16), byte(i >> 8), byte(i)}
		zone[name] = ip
		if err := trie.Add(name, ip); err != nil {
			b.Fatal(err)
		}
	}
	query, err := dns.NewQuery(7, "st004242.iot-vendor.example", dns.TypeA).Encode()
	if err != nil {
		b.Fatal(err)
	}
	qb := query[dns.HeaderSize:] // question section, the trie's input

	b.Run("trie-wire", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := trie.Lookup(qb); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("trie-name", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := trie.LookupName("st004242.iot-vendor.example"); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("map-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := dns.ParseView(query)
			if err != nil {
				b.Fatal(err)
			}
			q, err := v.Question()
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := zone[q.Name]; !ok {
				b.Fatal("miss")
			}
		}
	})
}

// BenchmarkVictimBuildLink measures compiling+linking the victim binary.
func BenchmarkVictimBuildLink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u, err := victim.BuildProgram(isa.ArchARMS, victim.BuildOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := image.Link(u, image.DefaultProgramLayout(isa.ArchARMS), image.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdRecon measures recon in a fresh process: the global
// gadget scan cache is flushed every iteration, so section indexes
// cannot be served from memory and every replica is probed live.
func BenchmarkColdRecon(b *testing.B) {
	cfg := kernel.Config{WX: true, ASLR: true, Seed: 1001}
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		b.Run(string(arch)+"/live", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gadget.FlushScanCache()
				if _, err := exploit.Recon(arch, victim.BuildOpts{}, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
