package campaign

import (
	"bytes"
	"encoding/json"
	"testing"

	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/telemetry"
)

// metricsRun runs the standard determinism workload under fresh
// telemetry and returns the merged snapshot, stage aggregates and the
// number of recon probes the engine ran.
func metricsRun(t *testing.T, workers int) (telemetry.Snapshot, []telemetry.ScenarioStages, int64) {
	t.Helper()
	telemetry.Enable() // fresh state: Enable doubles as the reset
	eng := New(Config{Workers: workers, RootSeed: 7777})
	rep, err := eng.Run(determinismScenarios())
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return telemetry.TakeSnapshot(), rep.StageAggregates(), eng.probes.Stats().Builds
}

// TestMetricsMergeDeterministic extends the engine's determinism
// guarantee to the telemetry plane: merged counters and histograms are a
// pure function of the work performed, so a 1-worker and an 8-worker
// campaign agree on every metric whose meaning is work done — only the
// scheduling-dependent splits (which daemon got recycled, which worker
// found the scan index warm) are compared as sums.
func TestMetricsMergeDeterministic(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	snap1, stages1, probes1 := metricsRun(t, 1)
	snap8, stages8, probes8 := metricsRun(t, 8)

	// Scheduling-dependent pairs: the split varies, the sum must not.
	sumPairs := [][2]string{
		{telemetry.CtrPoolRecycle.Name(), telemetry.CtrPoolFresh.Name()},
		{telemetry.CtrGadgetScanBuild.Name(), telemetry.CtrGadgetScanHit.Name()},
	}
	sumKey := map[string]bool{}
	for _, p := range sumPairs {
		sumKey[p[0]], sumKey[p[1]] = true, true
	}
	// gadget_scan_entries/gadget_scan_evict track occupancy of the global
	// scan cache, which persists across runs in one process: the second
	// run finds it warm and inserts nothing. Like the build/hit split they
	// are topology diagnostics, outside the determinism contract.
	sumKey[telemetry.CtrGadgetScanInsert.Name()] = true
	sumKey[telemetry.CtrGadgetScanEvict.Name()] = true
	// How a translated block was served (decoded afresh, rebased, or
	// reused as kept) depends on what its recycled daemon ran before:
	// a split of block_translate, which is compared exactly. The split
	// can only account for translated blocks.
	for _, split := range [][3]telemetry.Counter{
		{telemetry.CtrX86BlockTranslate, telemetry.CtrX86BlockDecode, telemetry.CtrX86BlockRebase},
		{telemetry.CtrARMSBlockTranslate, telemetry.CtrARMSBlockDecode, telemetry.CtrARMSBlockRebase},
	} {
		sumKey[split[1].Name()], sumKey[split[2].Name()] = true, true
		for _, snap := range []telemetry.Snapshot{snap1, snap8} {
			if tr, dec, reb := snap.Counters[split[0].Name()], snap.Counters[split[1].Name()],
				snap.Counters[split[2].Name()]; dec+reb > tr {
				t.Errorf("%s %d + %s %d exceed %s %d", split[1].Name(), dec, split[2].Name(), reb,
					split[0].Name(), tr)
			}
		}
	}
	for name, v1 := range snap1.Counters {
		if sumKey[name] {
			continue
		}
		if v8 := snap8.Counters[name]; v8 != v1 {
			t.Errorf("counter %s: workers=1 -> %d, workers=8 -> %d", name, v1, v8)
		}
	}
	for _, p := range sumPairs {
		s1 := snap1.Counters[p[0]] + snap1.Counters[p[1]]
		s8 := snap8.Counters[p[0]] + snap8.Counters[p[1]]
		if s1 != s8 {
			t.Errorf("sum %s+%s: workers=1 -> %d, workers=8 -> %d", p[0], p[1], s1, s8)
		}
	}
	// Every daemon taken from the pool — a device's (counted as
	// pool_recycle or pool_fresh) or a recon probe's crash dummy
	// (uncounted) — fetches the program and libc units once, recycled or
	// fresh alike, so the unit caches see exactly two gets per daemon.
	for _, snap := range []struct {
		name   string
		s      telemetry.Snapshot
		probes int64
	}{{"workers=1", snap1, probes1}, {"workers=8", snap8, probes8}} {
		gets := snap.s.Counters[telemetry.CtrUnitBuild.Name()] + snap.s.Counters[telemetry.CtrUnitHit.Name()]
		daemons := snap.s.Counters[telemetry.CtrPoolFresh.Name()] + snap.s.Counters[telemetry.CtrPoolRecycle.Name()] +
			uint64(snap.probes)
		if snap.probes == 0 || gets != 2*daemons {
			t.Errorf("%s: unit cache gets = %d, want 2 per pooled daemon (%d, %d of them probes)",
				snap.name, gets, 2*daemons, snap.probes)
		}
	}
	for name, h1 := range snap1.Histograms {
		if h8 := snap8.Histograms[name]; h8 != h1 {
			t.Errorf("histogram %s: workers=1 -> %+v, workers=8 -> %+v", name, h1, h8)
		}
	}

	// The workload must actually exercise the instrumented layers.
	for _, name := range []string{
		telemetry.CtrEmuRuns.Name(), telemetry.CtrEmuInstr.Name(),
		telemetry.CtrReconBuild.Name(), telemetry.CtrUnitBuild.Name(),
		telemetry.CtrNetDelivered.Name(), telemetry.CtrDNSHijacked.Name(),
	} {
		if snap1.Counters[name] == 0 {
			t.Errorf("counter %s is 0 — workload does not cover it", name)
		}
	}
	if snap1.Counters[telemetry.CtrPoolRecycle.Name()]+snap1.Counters[telemetry.CtrPoolFresh.Name()] == 0 {
		t.Error("daemon pool counters are 0")
	}

	// Per-scenario parse-cost percentiles are exact order statistics over
	// deterministic instruction counts — identical for any worker count.
	if len(stages1) != len(stages8) {
		t.Fatalf("stage aggregate count: %d vs %d", len(stages1), len(stages8))
	}
	for i := range stages1 {
		a, b := stages1[i], stages8[i]
		if a.Label != b.Label || a.Devices != b.Devices || a.ParseInstr != b.ParseInstr {
			t.Errorf("scenario %d: workers=1 -> %s/%d/%+v, workers=8 -> %s/%d/%+v",
				i, a.Label, a.Devices, a.ParseInstr, b.Label, b.Devices, b.ParseInstr)
		}
	}
}

// TestStageSpansRecorded: with telemetry on, every attempt records one
// span per stage and the snapshot counts them.
func TestStageSpansRecorded(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	telemetry.Enable()
	eng := New(Config{Workers: 2, RootSeed: 99})
	s := Scenario{Arch: isa.ArchX86S, Kind: exploit.KindCodeInjection, Devices: 3}
	if _, err := eng.Run([]Scenario{s}); err != nil {
		t.Fatal(err)
	}
	spans := telemetry.Spans()
	if want := 3 * NumStages; len(spans) != want {
		t.Fatalf("recorded %d spans, want %d (3 devices x %d stages)", len(spans), want, NumStages)
	}
	seen := map[string]int{}
	for _, sp := range spans {
		seen[sp.Stage]++
		if sp.Dur < 0 || sp.Scenario == "" || sp.Device == "" {
			t.Errorf("malformed span %+v", sp)
		}
		if sp.Stage == StageNames[StageDeliver] && sp.Instr == 0 {
			t.Errorf("deliver span carries no instruction count: %+v", sp)
		}
	}
	for _, name := range StageNames {
		if seen[name] != 3 {
			t.Errorf("stage %q recorded %d times, want 3", name, seen[name])
		}
	}
	if got := telemetry.TakeSnapshot().SpanCount; got != len(spans) {
		t.Errorf("snapshot SpanCount = %d, want %d", got, len(spans))
	}
}

// TestStageNsAlwaysAccumulated: per-device stage wall times land in the
// report even with telemetry off — the report is self-sufficient.
func TestStageNsAlwaysAccumulated(t *testing.T) {
	telemetry.Disable()
	eng := New(Config{RootSeed: 7})
	r := eng.RunOne(Scenario{Arch: isa.ArchARMS, Kind: exploit.KindDoS})
	var total int64
	for _, ns := range r.StageNs {
		if ns < 0 {
			t.Fatalf("negative stage time: %v", r.StageNs)
		}
		total += ns
	}
	if total == 0 {
		t.Error("all stage times are zero; expected wall time to accrue")
	}
	if r.Trace != nil {
		t.Error("flight recorder ran without EnableTrace")
	}
}

// TestTraceCapturedInDeviceResult: arming the flight recorder attaches a
// recorder to each victim CPU and lands its control-transfer tail in the
// device result.
func TestTraceCapturedInDeviceResult(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	telemetry.EnableTrace(512)
	eng := New(Config{RootSeed: 7})
	r := eng.RunOne(Scenario{Arch: isa.ArchX86S, Kind: exploit.KindCodeInjection})
	if r.Outcome != OutcomeShell {
		t.Fatalf("outcome = %s (%s), want shell", r.Outcome, r.Detail)
	}
	if len(r.Trace) == 0 {
		t.Fatal("no flight-recorder events captured")
	}
	var syscalls int
	for _, ev := range r.Trace {
		if telemetry.CtlName(ev.Kind) == "?" {
			t.Fatalf("unknown control kind in %+v", ev)
		}
		if ev.Kind == telemetry.CtlSyscall {
			syscalls++
		}
	}
	if syscalls == 0 {
		t.Error("trace of an owned device records no syscall (the spawned shell)")
	}
}

// TestReportCarriesConfig: the serialized report embeds the resolved
// engine configuration, making JSON exports self-describing.
func TestReportCarriesConfig(t *testing.T) {
	eng := New(Config{Workers: 3, RootSeed: 123, ReconSeed: 456})
	rep, err := eng.Run([]Scenario{{Arch: isa.ArchX86S, Kind: exploit.KindDoS, Devices: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Config.Workers != 3 || rep.Config.RootSeed != 123 || rep.Config.ReconSeed != 456 {
		t.Errorf("report config = %+v, want {3 123 456}", rep.Config)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Config != rep.Config {
		t.Errorf("config after round-trip = %+v, want %+v", back.Config, rep.Config)
	}
	if len(back.Scenarios) != 1 || len(back.Scenarios[0].Devices) != 2 {
		t.Errorf("scenarios lost in round-trip: %+v", back.Scenarios)
	}
}

// TestPineappleScaleVictimAttempt: population victims are tagged with
// their device seeds like fleet devices, so each victim's kernel run
// accounting — its baseline lookup and the exploit — names its attempt.
func TestPineappleScaleVictimAttempt(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	telemetry.SetEventLevel(telemetry.EvDebug)
	e := New(Config{Workers: 1, RootSeed: 7777})
	cfg := ScaleConfig{Stations: 30, Lookups: 1, VictimEvery: 10, Scenario: scaleScenario()}
	rep, err := e.RunPineappleScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[uint64]int{}
	for _, ev := range telemetry.Events() {
		if ev.Cat == "kernel" && ev.Msg == "run" {
			runs[ev.Attempt]++
		}
	}
	if rep.Victims != 3 {
		t.Fatalf("victims = %d, want 3", rep.Victims)
	}
	for vi := 0; vi < rep.Victims; vi++ {
		seed := uint64(e.deviceSeed(cfg.Scenario, 0, vi))
		if runs[seed] != 2 {
			t.Errorf("victim %d (attempt %d): %d tagged kernel runs, want 2 (baseline, exploit); runs by attempt %v",
				vi, seed, runs[seed], runs)
		}
	}
}
