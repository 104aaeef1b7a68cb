// Package telemetry is the lab's flight-recorder subsystem: near-zero
// overhead metrics and tracing threaded through the emulators, the
// kernel, the network simulator, the gadget scanner and the campaign
// engine.
//
// Three instruments live here:
//
//   - Metrics: a fixed pool of cache-line-padded shards holding atomic
//     counters and log₂-bucket histograms. Writers take a Shard handle
//     (or use the package-level Inc) and never contend on a lock; readers
//     merge every shard at snapshot time. Counter totals are a pure
//     function of the work performed, so a campaign's merged counters are
//     identical for any worker count.
//   - Spans: per-attempt stage timings (recon → payload → delivery →
//     verdict) recorded by the campaign engine into a bounded ring,
//     exported as a Chrome trace_event timeline. Spans carry the
//     splitmix64 per-device seed as an attempt ID, so every layer's
//     spans for one attempt correlate across the trace.
//   - Events: a leveled, fixed-ring structured log (EventLog) fed by
//     LogEvent — scalar-only payloads, zero allocation when recording,
//     one predicted branch when telemetry is off. The obs server
//     streams it over SSE; snapshots carry the tail.
//   - Flight recorder: an opt-in per-CPU ring of control-transfer events
//     (ret, pop-pc, bl/blx, int 0x80 / svc) that captures the exact
//     gadget-chain walk of a successful hijack. The emulator hot path
//     pays a single nil-check when the recorder is off and never
//     allocates when it is on.
//
// Everything is disabled by default: the package costs a nil handle per
// component until Enable is called. Enable installs a fresh state, so it
// doubles as a reset between runs.
package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Counter identifies one global metric. The set covers every cache and
// pool the engine layers: block translation in both ISAs, the gadget scan
// index, the campaign recon/payload/packet/unit caches, the daemon pool,
// the emulated kernel, and the network simulator.
type Counter uint8

// Global counters.
const (
	// Basic-block translation per ISA (flushed per emulated run):
	// blocks translated, dispatches served from the cache, cached blocks
	// discarded for a stale memory generation, and instructions retired
	// inside block dispatch (the rest went through single-step). Of the
	// blocks translated, decode counts those decoded afresh and rebase
	// those moved with their slid segment (the rest reused a kept
	// translation); the split depends on what a recycled daemon ran
	// before, so it is scheduling-dependent in a campaign.
	CtrX86BlockTranslate Counter = iota
	CtrX86BlockHit
	CtrX86BlockInvalidate
	CtrX86BlockInstr
	CtrX86BlockDecode
	CtrX86BlockRebase
	CtrARMSBlockTranslate
	CtrARMSBlockHit
	CtrARMSBlockInvalidate
	CtrARMSBlockInstr
	CtrARMSBlockDecode
	CtrARMSBlockRebase
	// Gadget scan index: content-addressed section scans computed vs
	// served from cache.
	CtrGadgetScanBuild
	CtrGadgetScanHit
	// Campaign engine caches (builds = misses).
	CtrReconBuild
	CtrReconHit
	CtrPayloadBuild
	CtrPayloadHit
	CtrPacketBuild
	CtrPacketHit
	CtrUnitBuild
	CtrUnitHit
	// Daemon pool: devices served by recycling an idle daemon vs a fresh
	// load. The split is scheduling-dependent (an idle daemon must exist
	// at acquire time); the sum is the device count.
	CtrPoolRecycle
	CtrPoolFresh
	// Emulated kernel: runs, instructions retired, faulting runs.
	CtrEmuRuns
	CtrEmuInstr
	CtrEmuFaults
	// Hangs block dispatch proved, and the instructions it fast-forwarded
	// past them instead of executing (counted in emu_instructions too).
	CtrEmuHangProven
	CtrEmuInstrSkipped
	// Instructions retired by copy-loop summaries, whole passes of the
	// emulated memcpy byte loop run as one step (counted in
	// emu_instructions too).
	CtrEmuInstrBulk
	// Network simulator: datagrams enqueued, delivered, dropped.
	CtrNetEnqueued
	CtrNetDelivered
	CtrNetDropped
	// Delivery epochs completed: BFS generations of the traffic, part of
	// the determinism contract.
	CtrNetEpochs
	// DNS plane: lookups the legitimate resolver answered, and lookups
	// the attacker's MITM hijacked with a crafted response.
	CtrDNSResolved
	CtrDNSHijacked
	// Gadget scan index residency: live entries inserted into the bounded
	// cache and entries evicted to stay under the cap. Which entry a
	// racing insert wins (and therefore the exact insert/evict split) is
	// scheduling-dependent, so these are topology diagnostics, not part
	// of the determinism contract.
	CtrGadgetScanInsert
	CtrGadgetScanEvict
	// Scenario compiler: declarative specs compiled into campaign
	// scenario lists, and compilations served from the per-process cache.
	// Topology diagnostics — compilation happens outside the per-device
	// hot path and never changes verdicts.
	CtrScenarioCompile
	CtrScenarioCacheHit

	numCounters
)

// counterNames are the JSON snapshot keys, index-aligned with the
// Counter constants. The schema golden test pins them.
var counterNames = [numCounters]string{
	"x86s_block_translate", "x86s_block_hit", "x86s_block_invalidate", "x86s_block_instructions",
	"x86s_block_decode", "x86s_block_rebase",
	"arms_block_translate", "arms_block_hit", "arms_block_invalidate", "arms_block_instructions",
	"arms_block_decode", "arms_block_rebase",
	"gadget_scan_build", "gadget_scan_hit",
	"recon_build", "recon_hit",
	"payload_build", "payload_hit",
	"packet_build", "packet_hit",
	"unit_build", "unit_hit",
	"pool_recycle", "pool_fresh",
	"emu_runs", "emu_instructions", "emu_faults",
	"emu_hang_proven", "emu_instr_skipped", "emu_instr_bulk",
	"net_enqueued", "net_delivered", "net_dropped",
	"net_epochs",
	"dns_resolved", "dns_hijacked",
	"gadget_scan_entries", "gadget_scan_evict",
	"scenario_compile", "scenario_cache_hit",
}

// Name returns the snapshot key of a counter.
func (c Counter) Name() string { return counterNames[c] }

// Hist identifies one global histogram. Values land in log₂ buckets, so
// merged bucket counts (and the percentiles derived from them) are exact
// functions of the observed values — deterministic inputs give
// deterministic percentiles for any worker count.
type Hist uint8

// Global histograms.
const (
	// HistEmuRunInstr is instructions retired per emulated run — the
	// deterministic cost axis of the per-attempt "emulated parse" stage.
	HistEmuRunInstr Hist = iota
	// HistNetQueueDepth samples the netsim delivery-queue depth at every
	// enqueue.
	HistNetQueueDepth
	// HistNetEpochBatch samples the generation size of every completed
	// delivery epoch — the netsim's unit of parallel work.
	HistNetEpochBatch

	numHists
)

var histNames = [numHists]string{
	"emu_run_instructions",
	"net_queue_depth",
	"net_epoch_batch",
}

// Name returns the snapshot key of a histogram.
func (h Hist) Name() string { return histNames[h] }

// histBuckets is the bucket count: bucket 0 holds zero values, bucket
// b>0 holds values in [2^(b-1), 2^b).
const histBuckets = 40

// numShards is the fixed shard-pool size. Handles are dealt round-robin,
// so concurrent writers (one CPU, one netsim world, one kernel process
// each) land on different shards and an atomic add never bounces a
// contended cache line.
const numShards = 32

// histogram is one shard's view of one histogram.
type histogram struct {
	count   [histBuckets]atomic.Uint64
	sum     atomic.Uint64
	samples atomic.Uint64
}

// Shard is one slice of the metric state. Writers hold a *Shard (nil
// when telemetry is disabled) and increment with plain atomic adds; the
// merge happens only at snapshot time.
type Shard struct {
	counters [numCounters]atomic.Uint64
	hists    [numHists]histogram
	// pad keeps neighbouring shards off one cache line.
	_ [64]byte
}

// Inc adds one to a counter.
func (s *Shard) Inc(c Counter) { s.counters[c].Add(1) }

// Add adds n to a counter.
func (s *Shard) Add(c Counter, n uint64) { s.counters[c].Add(n) }

// Observe records one histogram sample.
func (s *Shard) Observe(h Hist, v uint64) {
	hg := &s.hists[h]
	hg.count[bucketOf(v)].Add(1)
	hg.sum.Add(v)
	hg.samples.Add(1)
}

// bucketOf maps a value to its log₂ bucket.
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// state is one enablement epoch: counters, histograms, the span ring,
// the event log and the flight-recorder configuration.
type state struct {
	shards   [numShards]Shard
	next     atomic.Uint32
	spans    spanRing
	events   eventRing
	evMin    atomic.Uint32 // EventLevel threshold for LogEvent
	traceCap atomic.Int64  // >0: flight recorder armed, ring capacity
}

// cur is the active state; nil means disabled (the default).
var cur atomic.Pointer[state]

// Enable turns telemetry on with a fresh, zeroed state. Calling it while
// already enabled resets every counter, histogram and span — Enable is
// also the reset between measured runs. Components take their Shard
// handle at construction, so enable telemetry before building the
// engines/CPUs you want instrumented.
func Enable() {
	cur.Store(newState())
}

func newState() *state {
	s := &state{}
	s.spans.init(spanRingCap)
	s.events.init(eventRingCap)
	s.evMin.Store(uint32(EvInfo))
	return s
}

// Disable turns telemetry off. Components constructed afterwards get nil
// handles; components holding handles into the old state keep writing to
// it harmlessly (it is garbage once they go).
func Disable() {
	cur.Store(nil)
}

// Enabled reports whether metrics collection is on.
func Enabled() bool { return cur.Load() != nil }

// DefaultTraceEvents is the default flight-recorder ring capacity: deep
// enough for a full ROP-chain walk plus the benign control flow leading
// to the smash, small enough to stay resident per device.
const DefaultTraceEvents = 4096

// EnableTrace arms the hijack flight recorder (enabling telemetry first
// if needed): consumers that honour TraceOn attach a ControlRecorder of
// TraceCap events to each victim CPU. n <= 0 uses DefaultTraceEvents.
func EnableTrace(n int) {
	if n <= 0 {
		n = DefaultTraceEvents
	}
	s := cur.Load()
	if s == nil {
		Enable()
		s = cur.Load()
	}
	s.traceCap.Store(int64(n))
}

// TraceOn reports whether the flight recorder is armed.
func TraceOn() bool {
	s := cur.Load()
	return s != nil && s.traceCap.Load() > 0
}

// TraceCap returns the armed flight-recorder capacity (0 when off).
func TraceCap() int {
	s := cur.Load()
	if s == nil {
		return 0
	}
	return int(s.traceCap.Load())
}

// Handle returns a metrics shard for a new component, or nil while
// telemetry is disabled. Handles are dealt round-robin from the fixed
// pool; any number of components may share a shard (totals are summed at
// read time anyway).
func Handle() *Shard {
	s := cur.Load()
	if s == nil {
		return nil
	}
	return &s.shards[s.next.Add(1)%numShards]
}

// Inc bumps a global counter when telemetry is enabled — the convenience
// form for call sites too cold to justify holding a Shard handle. The
// shard is picked by counter so distinct counters do not share a line.
func Inc(c Counter) {
	s := cur.Load()
	if s == nil {
		return
	}
	s.shards[int(c)%numShards].counters[c].Add(1)
}

// Add is Inc for increments larger than one.
func Add(c Counter, n uint64) {
	s := cur.Load()
	if s == nil {
		return
	}
	s.shards[int(c)%numShards].counters[c].Add(n)
}
