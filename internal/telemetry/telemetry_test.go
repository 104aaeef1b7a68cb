package telemetry

import (
	"testing"
)

// TestCounterMergeAcrossShards checks that increments spread over many
// metric handles sum to the same totals at snapshot time — the handle
// pool is invisible to readers.
func TestCounterMergeAcrossShards(t *testing.T) {
	Enable()
	t.Cleanup(Disable)

	// Deal more handles than there are shards so several alias.
	handles := make([]*Shard, 3*numShards)
	for i := range handles {
		handles[i] = Handle()
		if handles[i] == nil {
			t.Fatal("Handle returned nil while enabled")
		}
	}
	for i, h := range handles {
		h.Inc(CtrEmuRuns)
		h.Add(CtrEmuInstr, uint64(i))
	}
	Inc(CtrDNSHijacked)
	Add(CtrNetDropped, 7)

	snap := TakeSnapshot()
	if got, want := snap.Counters[CtrEmuRuns.Name()], uint64(len(handles)); got != want {
		t.Errorf("%s = %d, want %d", CtrEmuRuns.Name(), got, want)
	}
	wantInstr := uint64(len(handles)*(len(handles)-1)) / 2
	if got := snap.Counters[CtrEmuInstr.Name()]; got != wantInstr {
		t.Errorf("%s = %d, want %d", CtrEmuInstr.Name(), got, wantInstr)
	}
	if got := snap.Counters[CtrDNSHijacked.Name()]; got != 1 {
		t.Errorf("%s = %d, want 1", CtrDNSHijacked.Name(), got)
	}
	if got := snap.Counters[CtrNetDropped.Name()]; got != 7 {
		t.Errorf("%s = %d, want 7", CtrNetDropped.Name(), got)
	}
}

// TestEnableResets: Enable while enabled installs a fresh state — the
// documented reset between measured runs.
func TestEnableResets(t *testing.T) {
	Enable()
	t.Cleanup(Disable)
	Inc(CtrEmuFaults)
	Enable()
	if got := TakeSnapshot().Counters[CtrEmuFaults.Name()]; got != 0 {
		t.Errorf("%s after re-Enable = %d, want 0", CtrEmuFaults.Name(), got)
	}
}

// TestDisabledIsInert: every write path is a no-op without Enable, and a
// snapshot still carries the full zero-valued schema.
func TestDisabledIsInert(t *testing.T) {
	Disable()
	if Handle() != nil {
		t.Error("Handle while disabled should be nil")
	}
	Inc(CtrEmuRuns)
	Add(CtrEmuInstr, 5)
	RecordSpan(Span{Stage: "recon"})
	snap := TakeSnapshot()
	if len(snap.Counters) != int(numCounters) || len(snap.Histograms) != int(numHists) {
		t.Fatalf("snapshot schema incomplete: %d counters, %d histograms",
			len(snap.Counters), len(snap.Histograms))
	}
	for name, v := range snap.Counters {
		if v != 0 {
			t.Errorf("counter %s = %d while disabled, want 0", name, v)
		}
	}
	if Spans() != nil {
		t.Error("Spans while disabled should be nil")
	}
}

// TestHistogramBucketPercentiles: merged log₂ buckets yield percentiles
// that are exact functions of the observed values.
func TestHistogramBucketPercentiles(t *testing.T) {
	Enable()
	t.Cleanup(Disable)
	h := Handle()
	// 90 small values in bucket 3 ([4,8)), 10 large in bucket 11 ([1024,2048)).
	for i := 0; i < 90; i++ {
		h.Observe(HistEmuRunInstr, 5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(HistEmuRunInstr, 1500)
	}
	hs := TakeSnapshot().Histograms[HistEmuRunInstr.Name()]
	if hs.Count != 100 || hs.Sum != 90*5+10*1500 {
		t.Fatalf("count=%d sum=%d, want 100 / %d", hs.Count, hs.Sum, 90*5+10*1500)
	}
	// p50 lands in the small bucket (upper bound 7), p95/p99 in the large
	// one (upper bound 2047).
	if hs.P50 != 7 || hs.P95 != 2047 || hs.P99 != 2047 {
		t.Errorf("pct = %+v, want p50=7 p95=2047 p99=2047", hs.Pct)
	}
}

// TestPercentilesNearestRank pins the exact order-statistic helper used
// for the deterministic per-scenario aggregates.
func TestPercentilesNearestRank(t *testing.T) {
	if got := (Percentiles(nil)); got != (Pct{}) {
		t.Errorf("empty = %+v, want zero", got)
	}
	samples := make([]uint64, 100)
	for i := range samples {
		samples[i] = uint64(100 - i) // unsorted input: 100..1
	}
	got := Percentiles(samples)
	if got.P50 != 50 || got.P95 != 95 || got.P99 != 99 {
		t.Errorf("pct over 1..100 = %+v, want 50/95/99", got)
	}
	if samples[0] != 100 {
		t.Error("Percentiles must not reorder its input")
	}
}

// TestSpanRingWrap: the span ring keeps the newest spans, oldest-first.
func TestSpanRingWrap(t *testing.T) {
	var sr spanRing
	sr.init(4)
	for i := 0; i < 10; i++ {
		sr.record(Span{Start: int64(i)})
	}
	got := sr.snapshot()
	if len(got) != 4 {
		t.Fatalf("held %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := int64(6 + i); s.Start != want {
			t.Errorf("span[%d].Start = %d, want %d", i, s.Start, want)
		}
	}
}
