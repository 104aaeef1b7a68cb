package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"connlab/internal/defense"
	"connlab/internal/dns"
	"connlab/internal/exploit"
	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

// Default campaign seeds, matching the lab's historical defaults.
const (
	DefaultRootSeed  = 2002
	DefaultReconSeed = 1001
)

// Scenario is one cell of a campaign: a victim configuration plus a
// fleet of devices to attack under it.
type Scenario struct {
	// Label names the scenario in reports; empty derives
	// "arch/kind/protection".
	Label string
	// Arch and Kind select the victim architecture and exploit strategy.
	Arch isa.Arch
	Kind exploit.Kind
	// Protection is the victim's defensive posture.
	Protection Protection
	// Build selects the deployed firmware (vulnerable 1.34 by default).
	Build victim.BuildOpts
	// ReconBuild, when non-nil, is the firmware the attacker's replica
	// runs (e.g. the attacker recons 1.34 while targets run 1.35).
	ReconBuild *victim.BuildOpts
	// Devices is the fleet size; 0 means 1.
	Devices int
	// PatchedEvery makes every PatchedEvery-th device run the patched
	// firmware (0 = none patched).
	PatchedEvery int
	// TargetSeed, when non-zero, pins the machine seed instead of
	// deriving it from the campaign root seed: a single device uses it
	// verbatim, a fleet uses TargetSeed+100+i per device (the lab's
	// historical fleet schedule). Zero derives per-device seeds with
	// DeriveSeed(root, scenarioIndex, deviceIndex).
	TargetSeed int64
	// Pineapple delivers the payload through a per-device rogue-AP world
	// (association hijack + MITM resolver, §III-D) instead of handing the
	// crafted response straight to the daemon.
	Pineapple bool
}

// label returns the display label.
func (s Scenario) label() string {
	if s.Label != "" {
		return s.Label
	}
	return fmt.Sprintf("%s/%s/%s", s.Arch, s.Kind, s.Protection)
}

// devices returns the effective fleet size.
func (s Scenario) devices() int {
	if s.Devices <= 0 {
		return 1
	}
	return s.Devices
}

// reconBuild returns the firmware the attacker replicates.
func (s Scenario) reconBuild() victim.BuildOpts {
	if s.ReconBuild != nil {
		return *s.ReconBuild
	}
	return s.Build
}

// Config parameterizes an engine.
type Config struct {
	// Workers is the goroutine pool size; <=0 means GOMAXPROCS.
	Workers int
	// RootSeed drives per-device seed derivation (0 = DefaultRootSeed).
	RootSeed int64
	// ReconSeed seeds the attacker's replica (0 = DefaultReconSeed).
	ReconSeed int64
}

// Engine fans campaign scenarios across a worker pool, sharing
// per-configuration recon artifacts through build-once caches. All cached
// artifacts (probes, targets, payloads, program units) are read-only
// after construction and safe to share between workers; per-device state
// (process memory, shadow stacks, netsim worlds) is freshly built or, for
// daemons, recycled to a fresh-load state.
type Engine struct {
	cfg Config

	// probes caches the posture-free half of reconnaissance — image
	// link, gadget scan, frame discovery, the buffer-address session —
	// per replicated firmware (arch, build, seed); recons completes a
	// probe per W⊕X/ASLR posture with that posture's libc sample.
	probes *Cache[probeKey, *exploit.Probe]
	recons *Cache[reconKey, *exploit.Target]
	// payloads caches built exploits per configuration and kind,
	// including construction failures (OutcomeBuildFail is a verdict).
	payloads *Cache[payloadKey, *exploit.Exploit]
	// packets caches the encoded attack response per payload: the lab's
	// synthetic query is a constant, so the crafted wire bytes are too —
	// one splice serves every device of a configuration.
	packets *Cache[payloadKey, []byte]
	// units and libcs cache the victim-side program units that every
	// device load links from.
	units *Cache[unitKey, *image.Unit]
	libcs *Cache[isa.Arch, *image.Unit]
	// linkOptions caches the §IV diversity permutations.
	linkOptions *Cache[linkKey, image.Options]

	// pool holds idle daemons per ISA, recycled between devices and
	// recon's crash dummies instead of loading a fresh address space per
	// trial. Recycling rebinds the daemon to the requested program unit
	// (any build of the ISA), replays the seed's layout and canary draws
	// and re-lays the process out for the protections, so a pooled daemon
	// is byte-identical to a fresh load and the report stays
	// deterministic for any worker count.
	pool   map[isa.Arch][]*victim.Daemon
	poolMu sync.Mutex

	// Per-stage wall time, accumulated across workers (nanoseconds).
	nsRecon, nsPayload, nsVictimBuild, nsAttack atomic.Int64
}

type probeKey struct {
	arch  isa.Arch
	build victim.BuildOpts
	seed  int64
}

type reconKey struct {
	arch     isa.Arch
	wx, aslr bool
	build    victim.BuildOpts
	seed     int64
}

type payloadKey struct {
	recon reconKey
	kind  exploit.Kind
}

type unitKey struct {
	arch isa.Arch
	opts victim.BuildOpts
}

type linkKey struct {
	arch isa.Arch
	opts victim.BuildOpts
	seed int64
}

// New returns an engine with fresh caches.
func New(cfg Config) *Engine {
	if cfg.RootSeed == 0 {
		cfg.RootSeed = DefaultRootSeed
	}
	if cfg.ReconSeed == 0 {
		cfg.ReconSeed = DefaultReconSeed
	}
	return &Engine{
		cfg:    cfg,
		probes: NewCache[probeKey, *exploit.Probe](),
		recons: NewCache[reconKey, *exploit.Target]().
			Instrument(telemetry.CtrReconBuild, telemetry.CtrReconHit),
		payloads: NewCache[payloadKey, *exploit.Exploit]().
			Instrument(telemetry.CtrPayloadBuild, telemetry.CtrPayloadHit),
		packets: NewCache[payloadKey, []byte]().
			Instrument(telemetry.CtrPacketBuild, telemetry.CtrPacketHit),
		units: NewCache[unitKey, *image.Unit]().
			Instrument(telemetry.CtrUnitBuild, telemetry.CtrUnitHit),
		libcs: NewCache[isa.Arch, *image.Unit]().
			Instrument(telemetry.CtrUnitBuild, telemetry.CtrUnitHit),
		linkOptions: NewCache[linkKey, image.Options](),
		pool:        make(map[isa.Arch][]*victim.Daemon),
	}
}

// Workers returns the effective pool size.
func (e *Engine) Workers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ReconStats reports recon-cache effectiveness (builds = distinct
// configurations reconned, hits = devices served from cache).
func (e *Engine) ReconStats() CacheStats { return e.recons.Stats() }

// reconKeyFor derives the recon cache key: recon depends only on the
// architecture, the W⊕X/ASLR posture the attacker replicates (CFI and
// diversity are invisible to recon — the point of measuring them), the
// replicated firmware, and the replica seed.
func (e *Engine) reconKeyFor(s Scenario) reconKey {
	return reconKey{
		arch: s.Arch, wx: s.Protection.WX, aslr: s.Protection.ASLR,
		build: s.reconBuild(), seed: e.cfg.ReconSeed,
	}
}

// recon returns the cached attacker-side reconnaissance for a scenario's
// configuration, performing it on first use: the firmware's shared probe
// plus this posture's libc sample, exactly what exploit.Recon returns.
func (e *Engine) recon(s Scenario) (*exploit.Target, error) {
	k := e.reconKeyFor(s)
	return e.recons.Get(k, func() (*exploit.Target, error) {
		defer e.timeStage(&e.nsRecon)()
		p, err := e.probe(k.arch, k.build, k.seed)
		if err != nil {
			return nil, err
		}
		return p.Sample(kernel.Config{WX: k.wx, ASLR: k.aslr, Seed: k.seed})
	})
}

// probe returns the cached posture-free probe of a replicated firmware,
// running it on first use on a crash dummy borrowed from the daemon pool
// and returned to it afterwards.
func (e *Engine) probe(arch isa.Arch, build victim.BuildOpts, seed int64) (*exploit.Probe, error) {
	return e.probes.Get(probeKey{arch: arch, build: build, seed: seed}, func() (*exploit.Probe, error) {
		prog, err := e.victimUnit(arch, build)
		if err != nil {
			return nil, err
		}
		cfg := kernel.Config{Seed: seed}
		d, _, err := e.borrowDaemon(prog, cfg)
		if err != nil {
			return nil, err
		}
		_, libc := d.Process().Units()
		p, d, err := exploit.ProbeReplica(prog, libc, build, cfg, d)
		e.releaseDaemon(d)
		return p, err
	})
}

// payload returns the cached exploit for a scenario — one payload, many
// victims. A build failure is cached like a success: it is the verdict
// for every device in the configuration.
func (e *Engine) payload(s Scenario, tgt *exploit.Target) (*exploit.Exploit, error) {
	k := payloadKey{recon: e.reconKeyFor(s), kind: s.Kind}
	return e.payloads.Get(k, func() (*exploit.Exploit, error) {
		defer e.timeStage(&e.nsPayload)()
		return exploit.Build(tgt, s.Kind)
	})
}

// attackQueryWire is the encoded form of the lab's synthetic lookup — the
// query every direct-delivery trial pretends the victim forwarded
// upstream. It is a compile-time constant of the lab, built once; an
// encoding error (which a constant name cannot produce) is returned by
// every AttackResponse.
var attackQueryWire, attackQueryErr = dns.NewQuery(0x1337, phoneHomeName, dns.TypeA).Encode()

// AttackResponse crafts ex's answer to the lab's synthetic lookup: the
// packet a direct delivery hands the victim's parser.
func AttackResponse(ex *exploit.Exploit) ([]byte, error) {
	if attackQueryErr != nil {
		return nil, fmt.Errorf("campaign: attack query: %w", attackQueryErr)
	}
	return ex.AppendResponse(nil, attackQueryWire)
}

// attackPacket returns the cached crafted response for a scenario's
// payload. The query is fixed, so the packet is a pure function of the
// exploit; victims copy it into their own heap, so one buffer is safe to
// share across devices and workers.
func (e *Engine) attackPacket(s Scenario, ex *exploit.Exploit) ([]byte, error) {
	k := payloadKey{recon: e.reconKeyFor(s), kind: s.Kind}
	return e.packets.Get(k, func() ([]byte, error) { return AttackResponse(ex) })
}

// victimUnit returns the cached program unit for a victim build. Units
// are read-only inputs to linking, so one unit serves every device load.
func (e *Engine) victimUnit(arch isa.Arch, opts victim.BuildOpts) (*image.Unit, error) {
	return e.units.Get(unitKey{arch: arch, opts: opts}, func() (*image.Unit, error) {
		defer e.timeStage(&e.nsVictimBuild)()
		return victim.BuildProgram(arch, opts)
	})
}

// libcUnit returns the cached libc unit for an architecture.
func (e *Engine) libcUnit(arch isa.Arch) (*image.Unit, error) {
	return e.libcs.Get(arch, func() (*image.Unit, error) {
		defer e.timeStage(&e.nsVictimBuild)()
		return image.BuildLibc(arch)
	})
}

// targetSetup renders a scenario's Protection for one device under the
// machine seed — the only place a Protection becomes a load: the kernel
// config, the device's cached program unit (the build with the
// protection's canary and the device's patch folded in), and a fresh
// shadow stack to arm on the loaded process when CFI is on. The diversity
// permutation is derived from the unit once per (arch, build, seed).
func (e *Engine) targetSetup(s Scenario, seed int64, patched bool) (kernel.Config, *image.Unit, *defense.ShadowStack, error) {
	p := s.Protection
	cfg := kernel.Config{WX: p.WX, ASLR: p.ASLR, PIE: p.PIE, Seed: seed}
	opts := s.Build
	opts.Canary = opts.Canary || p.Canary
	opts.Patched = opts.Patched || patched
	var ss *defense.ShadowStack
	if p.CFI {
		ss = defense.NewShadowStack()
		cfg.Hooks = ss
	}
	prog, err := e.victimUnit(s.Arch, opts)
	if err != nil {
		return cfg, nil, nil, err
	}
	if p.DiversitySeed != 0 {
		// The permutation reads only the unit's function count, so the
		// pristine cached unit serves; it cannot fail.
		lo, _ := e.linkOptions.Get(linkKey{arch: s.Arch, opts: opts, seed: p.DiversitySeed},
			func() (image.Options, error) {
				defer e.timeStage(&e.nsVictimBuild)()
				return defense.DiversityOptions(prog, p.DiversitySeed), nil
			})
		cfg.LinkOpts = lo
	}
	return cfg, prog, ss, nil
}

// device returns a pooled daemon for one device of s under seed, loaded
// as targetSetup renders the protection, tagged with the seed as its
// attempt ID and with its shadow stack armed. The caller releases it.
func (e *Engine) device(s Scenario, seed int64, patched bool) (*victim.Daemon, error) {
	cfg, prog, ss, err := e.targetSetup(s, seed, patched)
	if err != nil {
		return nil, err
	}
	d, err := e.acquireDaemon(prog, cfg)
	if err != nil {
		return nil, err
	}
	d.Process().SetAttempt(uint64(seed))
	if ss != nil {
		ss.Arm(d.Process())
	}
	return d, nil
}

// acquireDaemon returns a device daemon running prog under cfg through
// borrowDaemon, counting the acquisition as pool traffic (pool_recycle or
// pool_fresh). Recon probes borrow uncounted, so the counters describe
// device daemons only.
func (e *Engine) acquireDaemon(prog *image.Unit, cfg kernel.Config) (*victim.Daemon, error) {
	d, recycled, err := e.borrowDaemon(prog, cfg)
	if recycled {
		telemetry.Inc(telemetry.CtrPoolRecycle)
	} else {
		telemetry.Inc(telemetry.CtrPoolFresh)
	}
	return d, err
}

// borrowDaemon returns a daemon running prog under cfg, recycling an idle
// pooled daemon of prog's ISA and loading fresh only when none is idle;
// recycled reports which. It prefers a daemon already linked from prog,
// whose recycle relinks the program only if the layout or link options
// moved.
func (e *Engine) borrowDaemon(prog *image.Unit, cfg kernel.Config) (d *victim.Daemon, recycled bool, err error) {
	libc, err := e.libcUnit(prog.Arch)
	if err != nil {
		return nil, false, err
	}
	e.poolMu.Lock()
	list := e.pool[prog.Arch]
	if n := len(list); n > 0 {
		i := n - 1
		for j := i; j >= 0; j-- {
			if u, _ := list[j].Process().Units(); u == prog {
				i = j
				break
			}
		}
		d, list[i] = list[i], list[n-1]
		e.pool[prog.Arch] = list[:n-1]
	}
	e.poolMu.Unlock()
	if d != nil && d.RecycleWith(prog, libc, cfg) {
		return d, true, nil
	}
	d, err = victim.NewDaemonWith(prog, libc, cfg)
	return d, false, err
}

// releaseDaemon parks a daemon for reuse by a later device or probe of
// the same ISA.
func (e *Engine) releaseDaemon(d *victim.Daemon) {
	if d == nil {
		return
	}
	arch := d.Process().Arch()
	e.poolMu.Lock()
	e.pool[arch] = append(e.pool[arch], d)
	e.poolMu.Unlock()
}

// timeStage returns a func that, when deferred, accumulates the elapsed
// time into the given stage counter.
func (e *Engine) timeStage(ns *atomic.Int64) func() {
	start := time.Now()
	return func() { ns.Add(int64(time.Since(start))) }
}

// stageRecorder times the stages of one device attempt: wall nanoseconds
// land in the DeviceResult (always — two clock reads per stage against a
// stage that emulates thousands of instructions), and each stage is
// mirrored into the telemetry span ring when telemetry is enabled.
type stageRecorder struct {
	scenario, device string
	worker           int
	attempt          uint64
	tel              bool
	t0               time.Time
	span0            int64
}

func newStageRecorder(scenario, device string, worker int, attempt uint64) stageRecorder {
	return stageRecorder{scenario: scenario, device: device, worker: worker,
		attempt: attempt, tel: telemetry.Enabled()}
}

// begin marks the start of a stage.
func (sr *stageRecorder) begin() {
	sr.t0 = time.Now()
	if sr.tel {
		sr.span0 = telemetry.SpanNow()
	}
}

// end closes the stage begun last, crediting its duration to r's stage
// slot and the span ring. instr annotates emulated-instruction cost
// (deliver stage) and is 0 elsewhere.
func (sr *stageRecorder) end(r *DeviceResult, stage int, instr uint64) {
	d := int64(time.Since(sr.t0))
	r.StageNs[stage] += d
	if sr.tel {
		telemetry.RecordSpan(telemetry.Span{
			Scenario: sr.scenario, Device: sr.device, Stage: StageNames[stage],
			Worker: sr.worker, Start: sr.span0, Dur: d, Instr: instr,
			Attempt: sr.attempt,
		})
	}
}

// deviceSeed derives the machine seed for device di of scenario si.
func (e *Engine) deviceSeed(s Scenario, si, di int) int64 {
	if s.TargetSeed != 0 {
		if s.devices() == 1 {
			return s.TargetSeed
		}
		return s.TargetSeed + int64(100+di)
	}
	return DeriveSeed(e.cfg.RootSeed, uint64(si), uint64(di))
}

// workItem addresses one device of one scenario.
type workItem struct{ si, di int }

// Run executes every scenario's fleet across the worker pool and returns
// the aggregated report. Results are stored by (scenario, device) index,
// so the report is identical for any worker count. A non-nil error means
// at least one trial failed on infrastructure (not verdict); the report
// still carries every completed trial.
func (e *Engine) Run(scenarios []Scenario) (*Report, error) {
	start := time.Now()
	resolved := e.cfg
	resolved.Workers = e.Workers()
	rep := &Report{
		Config:    resolved,
		RootSeed:  e.cfg.RootSeed,
		ReconSeed: e.cfg.ReconSeed,
		Workers:   e.Workers(),
		Scenarios: make([]ScenarioResult, len(scenarios)),
	}
	var work []workItem
	for si, s := range scenarios {
		n := s.devices()
		rep.Scenarios[si] = ScenarioResult{
			Scenario: s,
			Label:    s.label(),
			Devices:  make([]DeviceResult, n),
		}
		for di := 0; di < n; di++ {
			work = append(work, workItem{si: si, di: di})
		}
	}

	telemetry.LogEvent(telemetry.EvInfo, "campaign", "run start", "",
		0, uint64(len(scenarios)), uint64(len(work)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < e.Workers(); w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(work) {
					return
				}
				it := work[i]
				sr := &rep.Scenarios[it.si]
				sr.Devices[it.di] = e.runDevice(scenarios[it.si], sr.Label, it.si, it.di, worker)
			}
		}(w)
	}
	wg.Wait()

	var errs []error
	for si := range rep.Scenarios {
		sr := &rep.Scenarios[si]
		for di := range sr.Devices {
			d := &sr.Devices[di]
			sr.count(d.Outcome)
			sr.Hijacked += d.Hijacked
			if d.Err != "" {
				errs = append(errs, fmt.Errorf("%s device %d: %s", sr.Label, di, d.Err))
			}
		}
		rep.add(sr)
	}
	telemetry.LogEvent(telemetry.EvInfo, "campaign", "run done", "",
		0, uint64(len(work)), uint64(time.Since(start)))
	rep.Wall = time.Since(start)
	rep.Stages = StageTimings{
		Recon:       time.Duration(e.nsRecon.Load()),
		Payload:     time.Duration(e.nsPayload.Load()),
		VictimBuild: time.Duration(e.nsVictimBuild.Load()),
		Attack:      time.Duration(e.nsAttack.Load()),
	}
	rep.ReconCache = e.recons.Stats()
	rep.PayloadCache = e.payloads.Stats()
	rep.UnitCache = e.units.Stats()
	if len(errs) > 0 {
		return rep, errors.Join(errs...)
	}
	return rep, nil
}

// RunOne executes a single trial of a scenario through the engine's
// caches — the single-cell counterpart of Run for callers (like the core
// lab) that fire attacks one at a time but want recon, payloads, program
// units and crafted packets shared across calls. The device is addressed
// as (scenario 0, device 0), so a pinned TargetSeed is used verbatim.
func (e *Engine) RunOne(s Scenario) DeviceResult {
	return e.runDevice(s, s.label(), 0, 0, 0)
}

// Recon exposes the cached attacker-side reconnaissance for a scenario's
// configuration (the Kind field is irrelevant to recon and may be zero).
func (e *Engine) Recon(s Scenario) (*exploit.Target, error) {
	return e.recon(s)
}

// Payload exposes the cached exploit for a scenario. The returned exploit
// is shared and read-only.
func (e *Engine) Payload(s Scenario) (*exploit.Exploit, error) {
	tgt, err := e.recon(s)
	if err != nil {
		return nil, err
	}
	return e.payload(s, tgt)
}

// runDevice executes one trial: cached recon, cached payload, a fresh (or
// recycled, which is indistinguishable) victim, delivery, classification.
// Each stage's wall time lands in the result; with telemetry enabled the
// stages also become spans, named by label (s.label(), formatted once per
// scenario by the caller), and with tracing armed the victim CPU carries
// a flight recorder whose events come back in the result.
func (e *Engine) runDevice(s Scenario, label string, si, di, worker int) (r DeviceResult) {
	seed := e.deviceSeed(s, si, di)
	// The splitmix64-derived device seed doubles as the attempt ID that
	// correlates this trial's spans, events and kernel accounting across
	// every layer — campaign worker, exploit stages, emulated kernel,
	// netsim epochs.
	attempt := uint64(seed)
	patched := s.PatchedEvery > 0 && di%s.PatchedEvery == 0
	r = DeviceResult{
		Name:    fmt.Sprintf("iot-%02d", di),
		Seed:    seed,
		Patched: patched,
	}
	sc := newStageRecorder(label, r.Name, worker, attempt)
	// One verdict event per device, landed as the trial closes whatever
	// path it exits through; the outcome is a static string and the
	// conversion does not allocate.
	defer func() {
		telemetry.LogEvent(telemetry.EvInfo, "campaign", string(r.Outcome), r.Name,
			attempt, uint64(r.Hijacked), r.Run.Instructions)
	}()

	sc.begin()
	tgt, err := e.recon(s)
	sc.end(&r, StageRecon, 0)
	if err != nil {
		r.Outcome = OutcomeError
		r.Err = fmt.Sprintf("recon %s: %v", s.Arch, err)
		return r
	}
	sc.begin()
	ex, err := e.payload(s, tgt)
	sc.end(&r, StagePayload, 0)
	if err != nil {
		r.Outcome = OutcomeBuildFail
		r.Detail = err.Error()
		return r
	}
	sc.begin()
	d, err := e.device(s, seed, patched)
	sc.end(&r, StageVictim, 0)
	if err != nil {
		r.Outcome = OutcomeError
		r.Err = err.Error()
		return r
	}
	defer e.releaseDaemon(d)
	if telemetry.TraceOn() {
		// The recorder is detached before the daemon returns to the pool
		// (defers run LIFO: detach first, then releaseDaemon).
		rec := telemetry.NewControlRecorder(telemetry.TraceCap())
		cpu := d.Process().CPU()
		cpu.SetRecorder(rec)
		defer func() {
			cpu.SetRecorder(nil)
			r.Trace = rec.Events()
		}()
	}

	defer e.timeStage(&e.nsAttack)()
	sc.begin()
	r.Hijacked, err = e.deliver(s, d, ex, attempt)
	if err != nil {
		sc.end(&r, StageDeliver, 0)
		r.Outcome = OutcomeError
		r.Err = err.Error()
		return r
	}
	r.Run = d.LastResult()
	sc.end(&r, StageDeliver, r.Run.Instructions)
	sc.begin()
	r.Outcome, r.Detail = Classify(r.Run)
	sc.end(&r, StageVerdict, 0)
	return r
}

// deliver hands the scenario's attack to d — as the cached packet, or
// through a rogue-AP world of the device's own — and returns how many
// lookups the MITM answered. The verdict is read off d afterwards.
func (e *Engine) deliver(s Scenario, d *victim.Daemon, ex *exploit.Exploit, attempt uint64) (int, error) {
	if s.Pineapple {
		rep, err := fleetRun.deliver(d, ex, attempt)
		if err != nil {
			return 0, err
		}
		return rep.Hijacked, nil
	}
	pkt, err := e.attackPacket(s, ex)
	if err != nil {
		return 0, err
	}
	_, err = d.HandleResponse(pkt)
	return 0, err
}
