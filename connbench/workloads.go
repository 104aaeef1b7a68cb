package main

import (
	"fmt"
	"time"

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/scenario"
)

// A workload is one benchmark input family. Its inputs are a fixed pool
// of op descriptions indexed 0..poolSize-1, each with a recorded
// reference verdict; the run seed picks which pool entries a run visits.
type workload interface {
	// poolSize is the number of distinct ops the reference covers.
	poolSize() int
	// prepare is the per-process set-up before the first op: spec load
	// and compile where the workload has a spec.
	prepare() error
	// op runs pool entry j once, on a fresh campaign engine, the way one
	// CLI invocation would (minus process start).
	op(j int) opResult
}

// newWorkload returns the named workload.
func newWorkload(name string) (workload, error) {
	switch name {
	case "matrix-fleet":
		return &matrixFleet{}, nil
	case "mitigation-sweep":
		return &mitigationSweep{}, nil
	case "attack-oneshot":
		return &attackOneshot{}, nil
	case "pineapple-pop":
		return &pineapplePop{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

var workloadNames = []string{"matrix-fleet", "mitigation-sweep", "attack-oneshot", "pineapple-pop"}

// Seed-derivation tags: every seed of pool entry j derives from the root
// seed j+1 through campaign.DeriveSeed with one of these tags.
const (
	tagRecon     = 0x5EED_0001
	tagDiversity = 0x5EED_0002
)

// rootSeed is the campaign root seed of pool entry j.
func rootSeed(j int) int64 { return int64(j + 1) }

// Device classes, as bits of device.class.
const (
	// classPoolable marks a fixed-layout configuration whose daemon the
	// engine may recycle (no ASLR, PIE or diversity).
	classPoolable = 1 << iota
	classCFI
)

func classOf(p campaign.Protection) uint8 {
	var c uint8
	if !p.ASLR && !p.PIE && p.DiversitySeed == 0 {
		c |= classPoolable
	}
	if p.CFI {
		c |= classCFI
	}
	return c
}

// device is one trial's stage timings as the engine reported them.
type device struct {
	stage [campaign.NumStages]int64
	class uint8
}

// opResult is what one op returned: its verdict summary (compared with
// the reference) and the timings the metrics are derived from.
type opResult struct {
	err     error
	wallNs  int64
	trials  int
	ref     entry
	devices []device
	// reconSpanNs and payloadSpanNs are the benchmark's own spans around
	// the public Recon and Payload calls (attack-oneshot, pineapple-pop).
	reconSpanNs, payloadSpanNs int64
	// reconPerBuildNs and payloadPerBuildNs are the engine's stage time
	// per cache build (Report.Stages ÷ builds) for Run-based ops, and
	// reconSumNs is the op's total recon time either way.
	reconPerBuildNs, payloadPerBuildNs, reconSumNs int64
	// pooled marks ops whose engine runs several devices per
	// configuration, so fixed-layout daemons can be recycled.
	pooled bool
	// pumpNs is the op's netsim epoch-span total (traced runs only).
	pumpNs int64
	// busyNs is worker time inside engine stages; capNs is the worker
	// capacity of the op (wall × workers).
	busyNs, capNs int64
	// victimBuildNs is Report.Stages.VictimBuild; divSeeds counts the
	// op's diversity builds.
	victimBuildNs int64
	divSeeds      int
	scale         *campaign.ScaleReport
}

// matrixFleet is the paper's §III matrix (2 ISAs × 3 postures × 5 kinds)
// at fleet scale: 30 cells × 40 devices, direct delivery.
type matrixFleet struct {
	spec  *scenario.Spec
	cells []campaign.Scenario
}

func (w *matrixFleet) poolSize() int { return 16 }

func (w *matrixFleet) prepare() error {
	spec, err := scenario.Load("connman")
	if err != nil {
		return err
	}
	cells, err := scenario.Compile(spec, scenario.CompileOpts{Devices: 40})
	if err != nil {
		return err
	}
	w.spec, w.cells = spec, cells
	return nil
}

func (w *matrixFleet) op(j int) opResult {
	return runCampaign(campaign.Config{RootSeed: rootSeed(j)}, w.cells, w.spec, 0)
}

// mitigationSweep is §IV/E10: the six working attacks under CFI, canary
// and full PIE with 10 devices each, plus 20 diversity seeds with one
// device each — 300 trials.
type mitigationSweep struct {
	base []campaign.Scenario
}

// mitigationAttacks are the working per-level exploits the §IV
// mitigations are measured against (the lab's E10 set).
var mitigationAttacks = []struct {
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

const (
	mitigationDevices = 10
	diversitySeeds    = 20
)

func (w *mitigationSweep) poolSize() int { return 16 }

func (w *mitigationSweep) prepare() error {
	mutations := []func(campaign.Protection) campaign.Protection{
		func(p campaign.Protection) campaign.Protection { p.CFI = true; return p },
		func(p campaign.Protection) campaign.Protection { p.Canary = true; return p },
		func(p campaign.Protection) campaign.Protection { p.PIE, p.ASLR = true, true; return p },
	}
	w.base = w.base[:0]
	for _, m := range mutations {
		for _, a := range mitigationAttacks {
			w.base = append(w.base, campaign.Scenario{
				Arch: a.arch, Kind: a.kind, Protection: m(a.base), Devices: mitigationDevices,
			})
		}
	}
	return nil
}

func (w *mitigationSweep) op(j int) opResult {
	root := rootSeed(j)
	cells := append(make([]campaign.Scenario, 0, len(w.base)+diversitySeeds*len(mitigationAttacks)), w.base...)
	for _, a := range mitigationAttacks {
		for k := 0; k < diversitySeeds; k++ {
			p := a.base
			p.DiversitySeed = campaign.DeriveSeed(root, tagDiversity, uint64(k))
			cells = append(cells, campaign.Scenario{Arch: a.arch, Kind: a.kind, Protection: p, Devices: 1})
		}
	}
	return runCampaign(campaign.Config{RootSeed: root}, cells, nil, diversitySeeds)
}

// runCampaign runs one fresh engine over the cells and summarises the
// report. With a spec, devices outside its predicates are counted as
// spec violations (they are not failures: the reference decides that).
func runCampaign(cfg campaign.Config, cells []campaign.Scenario, spec *scenario.Spec, divSeeds int) opResult {
	t0 := time.Now()
	eng := campaign.New(cfg)
	rep, err := eng.Run(cells)
	wall := time.Since(t0).Nanoseconds()
	r := opResult{err: err, wallNs: wall, divSeeds: divSeeds}
	if rep == nil {
		return r
	}
	for si := range rep.Scenarios {
		sr := &rep.Scenarios[si]
		class := classOf(sr.Scenario.Protection)
		var allowed []campaign.Outcome
		if spec != nil {
			row, _ := scenario.RowFor(sr.Scenario.Protection)
			allowed, _ = spec.Expected(sr.Scenario.Kind, sr.Scenario.Arch, row)
		}
		for di := range sr.Devices {
			d := &sr.Devices[di]
			r.ref.Instr += d.Run.Instructions
			var sum int64
			for _, ns := range d.StageNs {
				sum += ns
			}
			r.busyNs += sum
			r.devices = append(r.devices, device{stage: d.StageNs, class: class})
			if spec != nil && !d.Patched && !outcomeIn(d.Outcome, allowed) {
				r.ref.SpecViolations++
			}
		}
	}
	r.trials = len(r.devices)
	r.ref.Canonical = canonicalDigest(rep)
	r.capNs = wall * int64(rep.Workers)
	r.pooled = true
	r.reconSumNs = int64(rep.Stages.Recon)
	if b := rep.ReconCache.Builds; b > 0 {
		r.reconPerBuildNs = int64(rep.Stages.Recon) / int64(b)
	}
	if b := rep.PayloadCache.Builds; b > 0 {
		r.payloadPerBuildNs = int64(rep.Stages.Payload) / int64(b)
	}
	r.victimBuildNs = int64(rep.Stages.VictimBuild)
	return r
}

// attackOneshot is the interactive path: one client, one attack request
// at a time, each a fresh engine with a fresh recon seed — timed calls
// Recon → Payload → RunOne for an (arch, paper posture) pair.
type attackOneshot struct {
	// reconDelay is a synthetic delay spun inside the Recon span; the
	// attribution self-test uses it, runs leave it zero.
	reconDelay time.Duration
}

func (w *attackOneshot) poolSize() int { return 1024 }

func (w *attackOneshot) prepare() error { return nil }

func (w *attackOneshot) op(j int) opResult {
	root := rootSeed(j)
	arch := [...]isa.Arch{isa.ArchX86S, isa.ArchARMS}[j%2]
	p := campaign.PaperLevels()[(j/2)%3]
	s := campaign.Scenario{Arch: arch, Kind: exploit.StrategyFor(arch, p.WX, p.ASLR), Protection: p}

	t0 := time.Now()
	eng := campaign.New(campaign.Config{RootSeed: root, ReconSeed: campaign.DeriveSeed(root, tagRecon)})
	_, err := eng.Recon(s)
	spin(w.reconDelay)
	t1 := time.Now()
	if err != nil {
		return opResult{err: fmt.Errorf("recon: %w", err)}
	}
	if _, err := eng.Payload(s); err != nil {
		return opResult{err: fmt.Errorf("payload: %w", err)}
	}
	t2 := time.Now()
	d := eng.RunOne(s)
	wall := time.Since(t0).Nanoseconds()

	r := opResult{
		wallNs: wall, trials: 1,
		reconSpanNs: t1.Sub(t0).Nanoseconds(), payloadSpanNs: t2.Sub(t1).Nanoseconds(),
		devices: []device{{stage: d.StageNs, class: classOf(p)}},
		capNs:   wall,
	}
	r.reconSumNs = r.reconSpanNs
	r.busyNs = r.reconSpanNs + r.payloadSpanNs
	for _, ns := range d.StageNs {
		r.busyNs += ns
	}
	if d.Outcome == campaign.OutcomeError {
		r.err = fmt.Errorf("trial: %s", d.Err)
	}
	r.ref = entry{Outcome: string(d.Outcome), Detail: d.Detail, Instr: d.Run.Instructions}
	return r
}

// spin busy-waits for d: a delay that costs CPU the way real work does.
func spin(d time.Duration) {
	for t := time.Now(); time.Since(t) < d; {
	}
}

// pineapplePop is §III-D at population scale: one shared rogue-AP world
// of 20 000 stations, 2 lookups each, and a victim every 2 500 stations.
type pineapplePop struct{}

var pineappleScenario = campaign.Scenario{
	Arch: isa.ArchARMS, Kind: exploit.KindRopMemcpy, Protection: campaign.LevelWXASLR,
}

var pineappleConfig = campaign.ScaleConfig{
	Stations: 20000, Lookups: 2, VictimEvery: 2500, Scenario: pineappleScenario,
}

func (w *pineapplePop) poolSize() int { return 8 }

func (w *pineapplePop) prepare() error { return nil }

func (w *pineapplePop) op(j int) opResult {
	s := pineappleScenario
	t0 := time.Now()
	eng := campaign.New(campaign.Config{RootSeed: rootSeed(j)})
	if _, err := eng.Recon(s); err != nil {
		return opResult{err: fmt.Errorf("recon: %w", err)}
	}
	t1 := time.Now()
	if _, err := eng.Payload(s); err != nil {
		return opResult{err: fmt.Errorf("payload: %w", err)}
	}
	t2 := time.Now()
	rep, err := eng.RunPineappleScale(pineappleConfig)
	wall := time.Since(t0).Nanoseconds()
	r := opResult{
		err: err, wallNs: wall,
		reconSpanNs: t1.Sub(t0).Nanoseconds(), payloadSpanNs: t2.Sub(t1).Nanoseconds(),
		capNs: wall, scale: rep,
	}
	r.reconSumNs = r.reconSpanNs
	if rep == nil {
		return r
	}
	r.trials = rep.Victims
	r.ref.Transcript = rep.Transcript()
	// The transcript's own invariants: every light station resolves
	// cleanly before the attack and is tainted on every attack lookup,
	// and every victim ends in a shell.
	lights := rep.Stations - rep.Victims
	if r.err == nil && (rep.BaselineOK != lights || rep.AttackTainted != lights*rep.Lookups ||
		rep.Shells != rep.Victims || rep.Dropped != 0) {
		r.err = fmt.Errorf("transcript invariants broken:\n%s", r.ref.Transcript)
	}
	return r
}

func outcomeIn(o campaign.Outcome, allowed []campaign.Outcome) bool {
	for _, a := range allowed {
		if o == a {
			return true
		}
	}
	return false
}
