package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"connlab/internal/kernel"
	"connlab/internal/telemetry"
)

// Attempt stages, in execution order. StageNames is index-aligned and
// provides the span/report labels.
const (
	StageRecon = iota
	StagePayload
	StageVictim
	StageDeliver
	StageVerdict
	NumStages
)

// StageNames labels the attempt stages for spans and reports.
var StageNames = [NumStages]string{"recon", "payload", "victim", "deliver", "verdict"}

// DeviceResult is one trial's fate.
type DeviceResult struct {
	// Name is the device's fleet name ("iot-03").
	Name string
	// Seed is the machine seed the device ran under.
	Seed int64
	// Patched reports whether the device ran the fixed firmware.
	Patched bool
	// Outcome classifies what the attack achieved.
	Outcome Outcome
	// Detail is a one-line explanation (fault, shell syscall, veto).
	Detail string
	// Hijacked counts DNS lookups the MITM answered (Pineapple delivery).
	Hijacked int
	// Run is the raw kernel result when the attack fired.
	Run kernel.RunResult
	// Err is set when the trial failed on infrastructure.
	Err string
	// StageNs is per-stage wall time for this attempt (indexed by the
	// Stage* constants). Wall clock, so host-scheduling-dependent — it is
	// excluded from Canonical and determinism comparisons.
	StageNs [NumStages]int64 `json:"stage_ns"`
	// Trace holds the hijack flight-recorder events for this attempt when
	// tracing is armed (telemetry.EnableTrace / the -trace flag).
	Trace []telemetry.ControlEvent `json:",omitempty"`
}

// ScenarioResult aggregates one scenario's fleet.
type ScenarioResult struct {
	Scenario Scenario
	Label    string
	Devices  []DeviceResult
	// Outcome counts across the fleet.
	Owned, Crashed, Blocked, Survived, BuildFail, Errors int
	// Hijacked sums MITM-answered lookups across the fleet.
	Hijacked int
}

// count tallies one device outcome.
func (sr *ScenarioResult) count(o Outcome) {
	switch o {
	case OutcomeShell:
		sr.Owned++
	case OutcomeCrash:
		sr.Crashed++
	case OutcomeBlocked:
		sr.Blocked++
	case OutcomeBuildFail:
		sr.BuildFail++
	case OutcomeError:
		sr.Errors++
	default:
		sr.Survived++
	}
}

// StageTimings is per-stage wall time accumulated across workers.
type StageTimings struct {
	// Recon covers attacker-side reconnaissance (replica build + link +
	// gadget scan + frame discovery); Payload covers exploit
	// construction; VictimBuild covers victim unit/libc builds and
	// diversity permutation; Attack covers device load + delivery.
	Recon, Payload, VictimBuild, Attack time.Duration
}

// Report is the aggregated outcome of a campaign run.
type Report struct {
	// Config is the resolved engine configuration the campaign ran under
	// (workers, root/recon seeds), so a serialized report is
	// self-describing — it can be tied back to its run parameters and
	// reproduced without external context.
	Config Config
	// RootSeed and ReconSeed reproduce the campaign bit for bit.
	RootSeed, ReconSeed int64
	// Workers is the pool size the campaign ran with. It never affects
	// the results — only the wall clock.
	Workers int
	// Scenarios holds per-scenario results in input order.
	Scenarios []ScenarioResult
	// Aggregate outcome counts across every scenario.
	Owned, Crashed, Blocked, Survived, BuildFail, Errors int
	// Hijacked sums MITM-answered lookups.
	Hijacked int
	// Wall is the campaign's wall-clock time; Stages breaks down where
	// worker time went.
	Wall   time.Duration
	Stages StageTimings
	// Cache effectiveness: Builds = distinct configurations computed,
	// Hits = trials served from cache.
	ReconCache, PayloadCache, UnitCache CacheStats
}

// add folds a scenario's counts into the campaign totals.
func (r *Report) add(sr *ScenarioResult) {
	r.Owned += sr.Owned
	r.Crashed += sr.Crashed
	r.Blocked += sr.Blocked
	r.Survived += sr.Survived
	r.BuildFail += sr.BuildFail
	r.Errors += sr.Errors
	r.Hijacked += sr.Hijacked
}

// TotalDevices returns the number of trials in the campaign.
func (r *Report) TotalDevices() int {
	n := 0
	for i := range r.Scenarios {
		n += len(r.Scenarios[i].Devices)
	}
	return n
}

// String renders a one-line summary with timing — human-facing, not
// byte-stable across runs (wall clock varies). Use Canonical for
// determinism checks.
func (r *Report) String() string {
	return fmt.Sprintf(
		"campaign: %d scenarios, %d devices -> %d owned, %d crashed, %d blocked, %d survived (%d hijacked) in %v [%d workers, recon %dx built / %dx cached]",
		len(r.Scenarios), r.TotalDevices(), r.Owned, r.Crashed, r.Blocked, r.Survived,
		r.Hijacked, r.Wall.Round(time.Millisecond), r.Workers,
		r.ReconCache.Builds, r.ReconCache.Hits)
}

// Canonical renders the deterministic portion of the report: seeds,
// every scenario, every device's seed and verdict, and all counts — but
// no timings, worker counts, or cache statistics. Two campaigns over the
// same scenarios and seeds render identical Canonical output regardless
// of worker count or scheduling; the determinism regression test holds
// the engine to that.
func (r *Report) Canonical() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign root=%d recon=%d scenarios=%d\n",
		r.RootSeed, r.ReconSeed, len(r.Scenarios))
	for si := range r.Scenarios {
		sr := &r.Scenarios[si]
		fmt.Fprintf(&sb, "[%d] %s devices=%d\n", si, sr.Label, len(sr.Devices))
		for di := range sr.Devices {
			d := &sr.Devices[di]
			fw := "1.34"
			if d.Patched {
				fw = "1.35"
			}
			fmt.Fprintf(&sb, "  %-8s seed=%-20d fw=%s hijacked=%d -> %-10s %s",
				d.Name, d.Seed, fw, d.Hijacked, d.Outcome, d.Detail)
			if d.Err != "" {
				fmt.Fprintf(&sb, " err=%s", d.Err)
			}
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "  owned=%d crashed=%d blocked=%d survived=%d no-payload=%d errors=%d hijacked=%d\n",
			sr.Owned, sr.Crashed, sr.Blocked, sr.Survived, sr.BuildFail, sr.Errors, sr.Hijacked)
	}
	fmt.Fprintf(&sb, "total owned=%d crashed=%d blocked=%d survived=%d no-payload=%d errors=%d hijacked=%d\n",
		r.Owned, r.Crashed, r.Blocked, r.Survived, r.BuildFail, r.Errors, r.Hijacked)
	return sb.String()
}

// WriteJSON serializes the full report — config included, so the
// snapshot is self-describing — as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// StageAggregates computes the telemetry snapshot's per-scenario entries
// from the device results: each fleet's emulated-parse cost distribution
// in instructions per device (deterministic for a given seed set, so
// comparable across worker counts) and its per-stage wall-time
// percentiles in nanoseconds, keyed by StageNames (scheduling-dependent).
// Nothing computes them unless a telemetry snapshot asks.
func (r *Report) StageAggregates() []telemetry.ScenarioStages {
	out := make([]telemetry.ScenarioStages, 0, len(r.Scenarios))
	for si := range r.Scenarios {
		sr := &r.Scenarios[si]
		instr := make([]uint64, len(sr.Devices))
		var stage [NumStages][]int64
		for di := range sr.Devices {
			d := &sr.Devices[di]
			instr[di] = d.Run.Instructions
			for s := range stage {
				stage[s] = append(stage[s], d.StageNs[s])
			}
		}
		wall := make(map[string]telemetry.Pct, NumStages)
		for s := range stage {
			wall[StageNames[s]] = telemetry.PercentilesNs(stage[s])
		}
		out = append(out, telemetry.ScenarioStages{
			Label:       sr.Label,
			Devices:     len(sr.Devices),
			ParseInstr:  telemetry.Percentiles(instr),
			StageWallNs: wall,
		})
	}
	return out
}

// RunInfo describes the campaign for a telemetry snapshot.
func (r *Report) RunInfo(tool string) *telemetry.RunInfo {
	return &telemetry.RunInfo{
		Tool:      tool,
		Workers:   r.Workers,
		RootSeed:  r.RootSeed,
		ReconSeed: r.ReconSeed,
		Scenarios: len(r.Scenarios),
		Devices:   r.TotalDevices(),
	}
}

// Table renders the per-configuration outcome table.
func (r *Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-40s %7s %6s %8s %8s %9s %9s\n",
		"scenario", "devices", "owned", "crashed", "blocked", "survived", "hijacked")
	for si := range r.Scenarios {
		sr := &r.Scenarios[si]
		fmt.Fprintf(&sb, "%-40s %7d %6d %8d %8d %9d %9d\n",
			sr.Label, len(sr.Devices), sr.Owned, sr.Crashed, sr.Blocked, sr.Survived, sr.Hijacked)
	}
	return sb.String()
}
