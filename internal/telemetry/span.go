package telemetry

import (
	"sync"
	"time"
)

// Span is one timed stage of one exploit attempt: the campaign engine
// records recon → payload → delivery → emulated parse → verdict per
// device. Start is nanoseconds since the process-wide span epoch (the
// first Enable), so spans from different workers share a timeline.
// Attempt is the splitmix64-derived per-device seed, threaded from the
// campaign worker through the exploit stages, the kernel and the netsim
// epochs so one attempt's spans correlate across layers. Track names
// the producing subsystem ("" = campaign stage, TrackNetsim = netsim
// epoch) and selects the trace lane group on export.
type Span struct {
	Scenario string `json:"scenario"`
	Device   string `json:"device"`
	Stage    string `json:"stage"`
	Worker   int    `json:"worker"`
	Start    int64  `json:"start_ns"`
	Dur      int64  `json:"dur_ns"`
	Instr    uint64 `json:"instr,omitempty"` // emulated instructions, parse stage only
	Attempt  uint64 `json:"attempt,omitempty"`
	Track    string `json:"track,omitempty"`
}

// TrackNetsim marks spans recorded by the network simulator: one span
// per delivery epoch, Worker 0 and Instr the epoch's batch size.
const TrackNetsim = "netsim"

// spanRingCap bounds the span ring: a 64-device × 12-scenario sweep at
// five stages per attempt fits four times over.
const spanRingCap = 16384

// spanEpoch anchors span timestamps; set once, on first use.
var (
	spanEpochOnce sync.Once
	spanEpoch     time.Time
)

// SpanNow returns the current span-timeline timestamp in nanoseconds.
func SpanNow() int64 {
	spanEpochOnce.Do(func() { spanEpoch = time.Now() })
	return time.Since(spanEpoch).Nanoseconds()
}

// spanRing is a mutex-guarded bounded ring of spans. Spans are recorded
// a handful of times per attempt (not per instruction), so a plain
// mutex is cheap and keeps the ring trivially correct.
type spanRing struct {
	mu   sync.Mutex
	ring []Span
	next uint64
}

func (sr *spanRing) init(n int) { sr.ring = make([]Span, n) }

func (sr *spanRing) record(s Span) {
	sr.mu.Lock()
	sr.ring[sr.next%uint64(len(sr.ring))] = s
	sr.next++
	sr.mu.Unlock()
}

func (sr *spanRing) snapshot() []Span {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.next == 0 {
		return nil
	}
	n := uint64(len(sr.ring))
	held := sr.next
	if held > n {
		held = n
	}
	out := make([]Span, 0, held)
	start := uint64(0)
	if sr.next > n {
		start = sr.next - n
	}
	for i := start; i < sr.next; i++ {
		out = append(out, sr.ring[i%n])
	}
	return out
}

// since copies out spans recorded after the cursor (a count previously
// returned by since; 0 = from the beginning), oldest-first, and returns
// the new cursor. Spans evicted from the ring before the poll are lost,
// which is the ring's contract.
func (sr *spanRing) since(after uint64) ([]Span, uint64) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.next <= after {
		return nil, sr.next
	}
	n := uint64(len(sr.ring))
	start := after
	if sr.next > n && sr.next-n > start {
		start = sr.next - n
	}
	out := make([]Span, 0, sr.next-start)
	for i := start; i < sr.next; i++ {
		out = append(out, sr.ring[i%n])
	}
	return out, sr.next
}

// RecordSpan stores one stage span when telemetry is enabled.
func RecordSpan(s Span) {
	st := cur.Load()
	if st == nil {
		return
	}
	st.spans.record(s)
}

// Spans returns the recorded spans oldest-first (nil when disabled or
// empty).
func Spans() []Span {
	st := cur.Load()
	if st == nil {
		return nil
	}
	return st.spans.snapshot()
}

// SpansSince returns spans recorded after the cursor plus the new
// cursor — the poll primitive behind the obs server's /spans SSE
// stream. Disabled telemetry returns (nil, after) so pollers idle.
func SpansSince(after uint64) ([]Span, uint64) {
	st := cur.Load()
	if st == nil {
		return nil, after
	}
	return st.spans.since(after)
}
