package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// SchemaVersion pins the snapshot JSON schema; the golden-file test in
// this package fails on any unannounced shape change. v2 adds the
// structured event log (event_count + a bounded tail of events), raw
// log₂ bucket counts on every histogram, and attempt/track fields on
// spans. v1 snapshots decode cleanly into the v2 struct (new fields
// zero) — pinned by the back-compat test against the preserved v1
// golden.
const SchemaVersion = 2

// snapshotEventTail bounds how many trailing events a snapshot embeds;
// the full ring stays available over the obs server's /events stream.
const snapshotEventTail = 256

// Pct is a percentile triple over a deterministic value axis
// (instruction counts, queue depths). Values are exact order statistics,
// not bucket interpolations, when computed from a sample list.
type Pct struct {
	P50 uint64 `json:"p50"`
	P95 uint64 `json:"p95"`
	P99 uint64 `json:"p99"`
}

// HistSnapshot is one merged histogram. Buckets are the raw log₂
// bucket counts (bucket 0 = zero values, bucket b>0 = [2^(b-1), 2^b)),
// a fixed-size array so HistSnapshot stays comparable — the campaign
// determinism tests compare them with == across worker counts.
type HistSnapshot struct {
	Count   uint64              `json:"count"`
	Sum     uint64              `json:"sum"`
	Buckets [histBuckets]uint64 `json:"buckets"`
	Pct
}

// RunInfo ties a snapshot back to the run that produced it.
type RunInfo struct {
	Tool      string `json:"tool"`
	Workers   int    `json:"workers,omitempty"`
	RootSeed  int64  `json:"root_seed,omitempty"`
	ReconSeed int64  `json:"recon_seed,omitempty"`
	Scenarios int    `json:"scenarios,omitempty"`
	Devices   int    `json:"devices,omitempty"`
}

// ScenarioStages is the per-scenario stage aggregate carried in a
// snapshot: deterministic parse-cost percentiles (emulated instructions
// per device) plus wall-clock stage percentiles. The wall-clock numbers
// depend on host scheduling and are excluded from determinism
// comparisons; ParseInstr is exact for a given seed whatever the worker
// count.
type ScenarioStages struct {
	Label       string         `json:"label"`
	Devices     int            `json:"devices"`
	ParseInstr  Pct            `json:"parse_instructions"`
	StageWallNs map[string]Pct `json:"stage_wall_ns,omitempty"`
}

// Snapshot is the merged, export-ready view of everything telemetry
// collected: counters summed across shards, histogram percentiles, span
// statistics and the run parameters.
type Snapshot struct {
	SchemaVersion int                     `json:"schema_version"`
	Run           *RunInfo                `json:"run,omitempty"`
	Counters      map[string]uint64       `json:"counters"`
	Histograms    map[string]HistSnapshot `json:"histograms"`
	Scenarios     []ScenarioStages        `json:"scenarios,omitempty"`
	SpanCount     int                     `json:"span_count"`
	EventCount    uint64                  `json:"event_count"`
	Events        []Event                 `json:"events,omitempty"`
	TraceEvents   int                     `json:"trace_events,omitempty"`
}

// TakeSnapshot merges every shard into an export-ready Snapshot. All
// counter and histogram names are always present (zero-valued when
// untouched) so the schema is stable run to run. Returns a zero-valued
// snapshot when telemetry is disabled.
func TakeSnapshot() Snapshot {
	snap := Snapshot{
		SchemaVersion: SchemaVersion,
		Counters:      make(map[string]uint64, int(numCounters)),
		Histograms:    make(map[string]HistSnapshot, int(numHists)),
	}
	for c := Counter(0); c < numCounters; c++ {
		snap.Counters[c.Name()] = 0
	}
	for h := Hist(0); h < numHists; h++ {
		snap.Histograms[h.Name()] = HistSnapshot{}
	}
	st := cur.Load()
	if st == nil {
		return snap
	}
	for c := Counter(0); c < numCounters; c++ {
		var total uint64
		for i := range st.shards {
			total += st.shards[i].counters[c].Load()
		}
		snap.Counters[c.Name()] = total
	}
	for h := Hist(0); h < numHists; h++ {
		var hs HistSnapshot
		for i := range st.shards {
			hg := &st.shards[i].hists[h]
			hs.Count += hg.samples.Load()
			hs.Sum += hg.sum.Load()
			for b := 0; b < histBuckets; b++ {
				hs.Buckets[b] += hg.count[b].Load()
			}
		}
		hs.Pct = bucketPercentiles(hs.Buckets, hs.Count)
		snap.Histograms[h.Name()] = hs
	}
	snap.SpanCount = len(st.spans.snapshot())
	snap.EventCount = st.events.count()
	after := uint64(0)
	if snap.EventCount > snapshotEventTail {
		after = snap.EventCount - snapshotEventTail
	}
	snap.Events, _ = st.events.since(after)
	return snap
}

// bucketPercentiles derives p50/p95/p99 from merged log₂ bucket counts.
// Each percentile reports the upper bound of the bucket the rank lands
// in — coarse, but an exact function of the observed values and so
// identical across worker counts.
func bucketPercentiles(buckets [histBuckets]uint64, total uint64) Pct {
	if total == 0 {
		return Pct{}
	}
	rank := func(q uint64) uint64 { // q per-10000
		target := (total*q + 9999) / 10000
		var cum uint64
		for b := 0; b < histBuckets; b++ {
			cum += buckets[b]
			if cum >= target {
				if b == 0 {
					return 0
				}
				return 1<<uint(b) - 1
			}
		}
		return 1<<uint(histBuckets) - 1
	}
	return Pct{P50: rank(5000), P95: rank(9500), P99: rank(9900)}
}

// Percentiles computes exact order-statistic p50/p95/p99 over raw
// samples (sorted copy; input untouched). Used for the deterministic
// per-scenario aggregates where the full sample list is available.
func Percentiles(samples []uint64) Pct {
	if len(samples) == 0 {
		return Pct{}
	}
	s := make([]uint64, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q int) uint64 { // q per-10000, nearest-rank
		r := (len(s)*q + 9999) / 10000
		if r < 1 {
			r = 1
		}
		return s[r-1]
	}
	return Pct{P50: at(5000), P95: at(9500), P99: at(9900)}
}

// PercentilesNs is Percentiles for int64 nanosecond samples.
func PercentilesNs(samples []int64) Pct {
	u := make([]uint64, 0, len(samples))
	for _, v := range samples {
		if v < 0 {
			v = 0
		}
		u = append(u, uint64(v))
	}
	return Percentiles(u)
}

// WriteSnapshot writes a snapshot as indented JSON.
func WriteSnapshot(w io.Writer, snap Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// WriteSnapshotFile writes a snapshot to path ("-" for stdout).
func WriteSnapshotFile(path string, snap Snapshot) error {
	if path == "-" {
		return WriteSnapshot(os.Stdout, snap)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSnapshot(f, snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceEvent is one Chrome trace_event entry (the JSON Array Format
// understood by chrome://tracing and Perfetto).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
	S    string         `json:"s,omitempty"` // instant-event scope
}

// WriteChromeTrace renders stage spans and control-transfer events as a
// Chrome trace_event JSON array. Campaign stage spans become duration
// ("X") events on pid 1 with one lane per worker; netsim epoch spans
// (Track == TrackNetsim) land on pid 3 with one lane per Worker; control
// events become instant ("i") events on pid 2 with the emulated
// instruction count as the timestamp, so the gadget chain reads left to
// right in execution order. Spans carry their attempt ID (the per-device
// splitmix64 seed, rendered in hex to survive JSON number precision) so
// one attempt's stage and epoch slices correlate across lanes.
func WriteChromeTrace(w io.Writer, spans []Span, ctl []ControlEvent) error {
	events := make([]traceEvent, 0, len(spans)+len(ctl)+2)
	events = append(events,
		traceEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "campaign stages"}},
		traceEvent{Name: "process_name", Ph: "M", Pid: 2, Args: map[string]any{"name": "hijack flight recorder"}},
	)
	workers := make(map[int]bool)
	shards := make(map[int]bool)
	for _, s := range spans {
		ev := traceEvent{
			Name: s.Stage,
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.Dur) / 1e3,
			Pid:  1,
			Tid:  s.Worker,
		}
		if s.Track == TrackNetsim {
			ev.Pid = 3
			shards[s.Worker] = true
			ev.Args = map[string]any{"batch": s.Instr}
		} else {
			workers[s.Worker] = true
			ev.Args = map[string]any{"scenario": s.Scenario, "device": s.Device}
			if s.Instr > 0 {
				ev.Args["instructions"] = s.Instr
			}
		}
		if s.Attempt != 0 {
			ev.Args["attempt"] = fmt.Sprintf("%#016x", s.Attempt)
		}
		events = append(events, ev)
	}
	if len(shards) > 0 {
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: 3,
			Args: map[string]any{"name": "netsim shards"}})
	}
	for _, tid := range sortedKeys(workers) {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", tid)}})
	}
	for _, tid := range sortedKeys(shards) {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 3, Tid: tid,
			Args: map[string]any{"name": fmt.Sprintf("shard %d", tid)}})
	}
	for _, c := range ctl {
		events = append(events, traceEvent{
			Name: fmt.Sprintf("%s %#x->%#x", CtlName(c.Kind), c.From, c.To),
			Ph:   "i",
			Ts:   float64(c.Instr),
			Pid:  2,
			Tid:  0,
			S:    "t",
			Args: map[string]any{"kind": CtlName(c.Kind), "from": c.From, "to": c.To, "instr": c.Instr},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// sortedKeys returns the keys of a lane set in ascending order so the
// metadata block is deterministic.
func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// WriteChromeTraceFile writes a Chrome trace to path ("-" for stdout).
func WriteChromeTraceFile(path string, spans []Span, ctl []ControlEvent) error {
	if path == "-" {
		return WriteChromeTrace(os.Stdout, spans, ctl)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, spans, ctl); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// FormatSnapshot renders a snapshot for terminal inspection (the dbgsh
// `telemetry` subcommand).
func FormatSnapshot(snap Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry snapshot (schema v%d)\n", snap.SchemaVersion)
	if r := snap.Run; r != nil {
		fmt.Fprintf(&b, "run: tool=%s workers=%d root_seed=%d recon_seed=%d scenarios=%d devices=%d\n",
			r.Tool, r.Workers, r.RootSeed, r.ReconSeed, r.Scenarios, r.Devices)
	}
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	b.WriteString("counters:\n")
	for _, name := range names {
		fmt.Fprintf(&b, "  %-22s %12d\n", name, snap.Counters[name])
	}
	hnames := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	b.WriteString("histograms:\n")
	for _, name := range hnames {
		h := snap.Histograms[name]
		fmt.Fprintf(&b, "  %-22s count=%d sum=%d p50=%d p95=%d p99=%d\n",
			name, h.Count, h.Sum, h.P50, h.P95, h.P99)
	}
	if len(snap.Scenarios) > 0 {
		b.WriteString("scenario stage costs (emulated instructions/device):\n")
		for _, sc := range snap.Scenarios {
			fmt.Fprintf(&b, "  %-28s devices=%-3d parse p50=%d p95=%d p99=%d\n",
				sc.Label, sc.Devices, sc.ParseInstr.P50, sc.ParseInstr.P95, sc.ParseInstr.P99)
		}
	}
	fmt.Fprintf(&b, "spans recorded: %d\n", snap.SpanCount)
	if snap.EventCount > 0 {
		fmt.Fprintf(&b, "events recorded: %d (snapshot carries last %d)\n",
			snap.EventCount, len(snap.Events))
		for _, e := range snap.Events {
			fmt.Fprintf(&b, "  [%12d] %-5s %-10s %-16s scope=%s attempt=%#x v0=%d v1=%d\n",
				e.TS, e.Level, e.Cat, e.Msg, e.Scope, e.Attempt, e.V0, e.V1)
		}
	}
	if snap.TraceEvents > 0 {
		fmt.Fprintf(&b, "flight-recorder events: %d\n", snap.TraceEvents)
	}
	return b.String()
}

// FormatControlTrace renders a control-transfer sequence as one line per
// event, the terminal twin of the Chrome trace export.
func FormatControlTrace(ctl []ControlEvent) string {
	var b strings.Builder
	for _, c := range ctl {
		fmt.Fprintf(&b, "  [%8d] %-7s %#08x -> %#08x\n", c.Instr, CtlName(c.Kind), c.From, c.To)
	}
	return b.String()
}
