package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSnapshot builds a fully-populated snapshot from fixed inputs.
// Every value is deterministic, so its JSON rendering doubles as the
// schema contract.
func goldenSnapshot() Snapshot {
	Enable()
	h := Handle()
	h.Add(CtrEmuRuns, 4)
	h.Add(CtrEmuInstr, 1234)
	Inc(CtrReconBuild)
	Add(CtrReconHit, 3)
	Inc(CtrPoolRecycle)
	Inc(CtrPoolFresh)
	Inc(CtrDNSHijacked)
	for _, v := range []uint64{0, 5, 5, 300, 70000} {
		h.Observe(HistEmuRunInstr, v)
	}
	h.Observe(HistNetQueueDepth, 2)
	RecordSpan(Span{Scenario: "x86s/code-injection/none", Device: "dev00",
		Stage: "recon", Worker: 0, Start: 100, Dur: 50, Attempt: 0x9e3779b97f4a7c15})
	RecordSpan(Span{Scenario: "x86s/code-injection/none", Device: "dev00",
		Stage: "deliver", Worker: 0, Start: 150, Dur: 900, Instr: 1234, Attempt: 0x9e3779b97f4a7c15})
	LogEvent(EvInfo, "campaign", "run start", "", 0, 1, 4)
	LogEvent(EvWarn, "kernel", "run fault", "dev00", 0x9e3779b97f4a7c15, 0x8048123, 1234)
	LogEvent(EvDebug, "kernel", "dropped below threshold", "", 0, 0, 0)

	snap := TakeSnapshot()
	// Event timestamps are wall-clock; pin them so the golden is
	// byte-stable. Seq/level/payload flow through the real pipeline.
	for i := range snap.Events {
		snap.Events[i].TS = int64(1000 * (i + 1))
	}
	snap.Run = &RunInfo{Tool: "campaign", Workers: 4, RootSeed: 42,
		ReconSeed: 1001, Scenarios: 1, Devices: 4}
	snap.Scenarios = []ScenarioStages{{
		Label: "x86s/code-injection/none", Devices: 4,
		ParseInstr: Pct{P50: 300, P95: 1234, P99: 1234},
	}}
	snap.TraceEvents = 3
	return snap
}

// TestSnapshotSchemaGolden pins the exported JSON byte-for-byte. Any
// field rename, reorder or type change fails here; bump SchemaVersion
// and regenerate with -update when the change is intentional.
func TestSnapshotSchemaGolden(t *testing.T) {
	t.Cleanup(Disable)
	snap := goldenSnapshot()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "snapshot.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("snapshot JSON drifted from golden schema (schema v%d):\n--- got ---\n%s\n--- want ---\n%s",
			SchemaVersion, buf.Bytes(), want)
	}
	// The golden file must carry the pinned schema version.
	var back Snapshot
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatalf("golden does not round-trip: %v", err)
	}
	if back.SchemaVersion != SchemaVersion {
		t.Errorf("golden schema_version = %d, want %d", back.SchemaVersion, SchemaVersion)
	}
}

// TestSnapshotV1BackCompat: the preserved schema-v1 golden must keep
// decoding into the current Snapshot struct — new v2 fields default to
// zero, nothing recorded in v1 is lost.
func TestSnapshotV1BackCompat(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.golden.json"))
	if err != nil {
		t.Fatalf("v1 golden missing: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("v1 snapshot no longer decodes: %v", err)
	}
	if snap.SchemaVersion != 1 {
		t.Errorf("v1 golden schema_version = %d, want 1", snap.SchemaVersion)
	}
	if got := snap.Counters["emu_runs"]; got != 4 {
		t.Errorf("v1 emu_runs = %d, want 4", got)
	}
	// Counters retired since v1 still decode: old files keep loading.
	for _, retired := range []string{"snap_hit", "net_cross_shard", "x86s_decode_hit"} {
		if _, ok := snap.Counters[retired]; !ok {
			t.Errorf("v1 retired counter %s was dropped on decode", retired)
		}
	}
	h, ok := snap.Histograms["emu_run_instructions"]
	if !ok || h.Count != 5 {
		t.Errorf("v1 emu_run_instructions = %+v (present=%v), want count 5", h, ok)
	}
	if h.Buckets != ([histBuckets]uint64{}) {
		t.Errorf("v1 snapshot decoded nonzero buckets: %v", h.Buckets)
	}
	if snap.EventCount != 0 || len(snap.Events) != 0 {
		t.Errorf("v1 snapshot decoded events: count=%d len=%d", snap.EventCount, len(snap.Events))
	}
}

// TestWriteChromeTrace: the trace export is a valid trace_event JSON
// array with spans as duration events and control transfers as instants.
func TestWriteChromeTrace(t *testing.T) {
	spans := []Span{
		{Scenario: "s", Device: "d", Stage: "payload", Worker: 2, Start: 1000, Dur: 500, Attempt: 7},
		{Stage: "epoch", Worker: 5, Start: 1100, Dur: 40, Instr: 12, Attempt: 7, Track: TrackNetsim},
	}
	ctl := []ControlEvent{
		{Kind: CtlReturn, From: 0x8048100, To: 0x6000, Instr: 41},
		{Kind: CtlSyscall, From: 0x6010, To: 11, Instr: 44},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans, ctl); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	var durs, instants, threadNames int
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			durs++
			args := ev["args"].(map[string]any)
			if args["attempt"] != "0x0000000000000007" {
				t.Errorf("span attempt arg = %v, want hex attempt ID", args["attempt"])
			}
			switch ev["pid"] {
			case float64(1):
				if ev["tid"] != float64(2) {
					t.Errorf("stage span tid = %v, want worker 2", ev["tid"])
				}
			case float64(3):
				if ev["tid"] != float64(5) {
					t.Errorf("netsim span tid = %v, want worker 5", ev["tid"])
				}
			default:
				t.Errorf("span on unexpected pid %v", ev["pid"])
			}
		case "i":
			instants++
		case "M":
			if ev["name"] == "thread_name" {
				threadNames++
			}
		}
	}
	if durs != 2 || instants != 2 {
		t.Errorf("trace has %d duration / %d instant events, want 2/2:\n%s", durs, instants, buf.String())
	}
	if threadNames != 2 {
		t.Errorf("trace has %d thread_name lanes, want 2 (worker 2, netsim worker 5)", threadNames)
	}
}

// TestFormatters: terminal renderings stay greppable.
func TestFormatters(t *testing.T) {
	t.Cleanup(Disable)
	out := FormatSnapshot(goldenSnapshot())
	for _, want := range []string{
		"schema v2", "tool=campaign", "emu_runs", "emu_run_instructions",
		"x86s/code-injection/none", "flight-recorder events: 3",
		"events recorded: 2", "run fault",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatSnapshot missing %q:\n%s", want, out)
		}
	}
	tr := FormatControlTrace([]ControlEvent{{Kind: CtlReturn, From: 0x8048100, To: 0x6000, Instr: 41}})
	if !strings.Contains(tr, "ret") || !strings.Contains(tr, "0x00006000") {
		t.Errorf("FormatControlTrace unexpected:\n%s", tr)
	}
}
