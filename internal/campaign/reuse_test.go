package campaign

import (
	"bytes"
	"runtime"
	"testing"

	"connlab/internal/dns"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/telemetry"
)

// TestAttackQueryEncodes: the lab's synthetic lookup is built from
// constants alone (ID 0x1337, phoneHomeName, type A), so no .scn file or
// labd request reaches its encoding; it encodes, and AttackResponse never
// sees the error it would return.
func TestAttackQueryEncodes(t *testing.T) {
	if attackQueryErr != nil {
		t.Fatalf("attack query: %v", attackQueryErr)
	}
	want, err := dns.NewQuery(0x1337, phoneHomeName, dns.TypeA).Encode()
	if err != nil || !bytes.Equal(attackQueryWire, want) {
		t.Fatalf("attack query = %x, %v; want %x", attackQueryWire, err, want)
	}
}

// sweepScenarios is a small §IV sweep: the six working attacks under
// CFI, canary and full PIE, plus four diversity seeds each.
func sweepScenarios() []Scenario {
	attacks := []struct {
		arch isa.Arch
		kind exploit.Kind
		base Protection
	}{
		{isa.ArchX86S, exploit.KindCodeInjection, LevelNone},
		{isa.ArchARMS, exploit.KindCodeInjection, LevelNone},
		{isa.ArchX86S, exploit.KindRet2Libc, LevelWX},
		{isa.ArchARMS, exploit.KindRopExeclp, LevelWX},
		{isa.ArchX86S, exploit.KindRopMemcpy, LevelWXASLR},
		{isa.ArchARMS, exploit.KindRopMemcpy, LevelWXASLR},
	}
	var cells []Scenario
	for _, a := range attacks {
		for _, m := range []func(Protection) Protection{
			func(p Protection) Protection { p.CFI = true; return p },
			func(p Protection) Protection { p.Canary = true; return p },
			func(p Protection) Protection { p.PIE, p.ASLR = true, true; return p },
		} {
			cells = append(cells, Scenario{Arch: a.arch, Kind: a.kind, Protection: m(a.base), Devices: 3})
		}
		for k := uint64(0); k < 4; k++ {
			p := a.base
			p.DiversitySeed = DeriveSeed(1, 0x5EED_0002, k)
			cells = append(cells, Scenario{Arch: a.arch, Kind: a.kind, Protection: p})
		}
	}
	return cells
}

// sweepRun runs sweepScenarios on a new engine under fresh telemetry and
// returns the canonical report and the counters.
func sweepRun(t *testing.T) (string, map[string]uint64) {
	t.Helper()
	telemetry.Enable()
	rep, err := New(Config{Workers: 1, RootSeed: 1}).Run(sweepScenarios())
	if err != nil {
		t.Fatal(err)
	}
	return rep.Canonical(), telemetry.TakeSnapshot().Counters
}

// TestSweepAfterCollectedEngine: a second engine, run after the first
// was dropped and collected, starts from the process-wide state the first
// left behind (the units' shared links, the gadget-scan cache) but must
// not show it: the canonical report and every counter of work done equal
// the first sweep's. Only the gadget-scan cache split differs, as that
// cache outlives engines by design.
func TestSweepAfterCollectedEngine(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	cold, coldCtr := sweepRun(t)
	runtime.GC()
	warm, warmCtr := sweepRun(t)
	if cold != warm {
		t.Errorf("canonical reports differ:\n%s\nvs\n%s", cold, warm)
	}
	scan := map[string]bool{
		telemetry.CtrGadgetScanBuild.Name(): true, telemetry.CtrGadgetScanHit.Name(): true,
		telemetry.CtrGadgetScanInsert.Name(): true, telemetry.CtrGadgetScanEvict.Name(): true,
	}
	for name, v := range coldCtr {
		if !scan[name] && warmCtr[name] != v {
			t.Errorf("counter %s: first sweep %d, after collection %d", name, v, warmCtr[name])
		}
	}
	b, h := telemetry.CtrGadgetScanBuild.Name(), telemetry.CtrGadgetScanHit.Name()
	if coldCtr[b]+coldCtr[h] != warmCtr[b]+warmCtr[h] {
		t.Errorf("gadget scans: first sweep %d, after collection %d", coldCtr[b]+coldCtr[h], warmCtr[b]+warmCtr[h])
	}
}
