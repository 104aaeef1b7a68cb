// Package obs is the lab's live ops surface: a stdlib-net/http server
// that mounts on whatever the process is doing — a campaign engine
// mid-fleet, a population-scale pineapple run, a single attack — and
// exposes the telemetry subsystem while it runs instead of only at
// exit. It is the load-bearing half of campaign-as-a-service: the
// endpoints are the contract job submitters and dashboards consume.
//
// Endpoints:
//
//	/metrics      Prometheus text exposition of every counter and
//	              histogram, plus per-second rates computed by diffing
//	              the background sampler's periodic TakeSnapshots
//	/snapshot     the full schema-v2 JSON snapshot (run metadata,
//	              counters, histograms, event-log tail)
//	/events       SSE stream of the structured event log (?level=,
//	              ?since=, ?once=1)
//	/spans        SSE stream of stage/epoch spans as they land
//	/trace        Chrome trace_event download of the span ring, with
//	              per-worker and netsim epoch lanes keyed by attempt ID
//	/debug/pprof  the standard pprof family
//
// The surface is strictly read-only over telemetry state and is off by
// default: nothing in this package runs unless a CLI was started with
// -listen (or a caller mounts Start directly), and recorded transcripts
// are byte-identical when it is off — the server prints its address to
// stderr, never stdout.
package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"

	"connlab/internal/telemetry"
)

// Options parameterizes a Server.
type Options struct {
	// Tool names the process in /metrics run-info and the index page.
	Tool string
	// Run, when non-nil, supplies the run metadata stamped onto
	// /snapshot responses (called per request — campaign config may not
	// be known when the server starts).
	Run func() *telemetry.RunInfo
	// SampleInterval is the background sampler cadence that the
	// /metrics rate gauges diff over. 0 means one second.
	SampleInterval time.Duration
	// PollInterval is the SSE tail-poll cadence. 0 means 200ms.
	PollInterval time.Duration
}

// Server is one live observability listener.
type Server struct {
	opts Options
	ln   net.Listener
	srv  *http.Server

	// Sampler state: the two most recent periodic snapshots. /metrics
	// derives rates from (cur-prev)/(curAt-prevAt).
	mu             sync.Mutex
	prev, cur      telemetry.Snapshot
	prevAt, curAt  time.Time
	haveTwoSamples bool

	done chan struct{}
}

// Start listens on addr (":0" picks an ephemeral port) and serves the
// observability surface until Close. Telemetry should already be
// enabled; the server only reads.
func Start(addr string, opts Options) (*Server, error) {
	if opts.SampleInterval <= 0 {
		opts.SampleInterval = time.Second
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 200 * time.Millisecond
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{opts: opts, ln: ln, done: make(chan struct{})}
	s.srv = &http.Server{Handler: s.Handler()}
	s.sampleNow()
	go s.sampleLoop()
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return s, nil
}

// Handler returns the route table without a listener — the test seam.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/spans", s.handleSpans)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Addr returns the bound listen address (with the resolved port).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener, in-flight streams and the sampler. Nil-safe
// so CLIs can defer it unconditionally.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	close(s.done)
	return s.srv.Close()
}

// sampleLoop drives the periodic snapshots behind the rate gauges.
func (s *Server) sampleLoop() {
	t := time.NewTicker(s.opts.SampleInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.sampleNow()
		}
	}
}

func (s *Server) sampleNow() {
	snap := telemetry.TakeSnapshot()
	now := time.Now()
	s.mu.Lock()
	s.prev, s.prevAt = s.cur, s.curAt
	s.cur, s.curAt = snap, now
	s.haveTwoSamples = s.haveTwoSamples || !s.prevAt.IsZero()
	s.mu.Unlock()
}

// ratePair returns the sampler's last two snapshots and the wall
// seconds between them (0 until two samples exist).
func (s *Server) ratePair() (prev, cur telemetry.Snapshot, dt float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.haveTwoSamples {
		return telemetry.Snapshot{}, s.cur, 0
	}
	return s.prev, s.cur, s.curAt.Sub(s.prevAt).Seconds()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "connlab observability surface (tool=%s)\n\n", s.opts.Tool)
	fmt.Fprint(w, `endpoints:
  /metrics       Prometheus text exposition (counters, rates, histograms)
  /snapshot      telemetry snapshot JSON (schema v2)
  /events        SSE event-log stream (?level=debug|info|warn, ?since=N, ?once=1)
  /spans         SSE stage/epoch span stream (?since=N, ?once=1)
  /trace         Chrome trace_event download (open in chrome://tracing)
  /debug/pprof/  pprof profiles
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	prev, _, dt := s.ratePair()
	// Current values are a fresh merge — cheap (µs) and never stale —
	// while rates diff against the sampler's previous period.
	snap := telemetry.TakeSnapshot()
	if s.opts.Run != nil {
		snap.Run = s.opts.Run()
	}
	if snap.Run == nil {
		snap.Run = &telemetry.RunInfo{Tool: s.opts.Tool}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeProm(w, snap, prev, dt)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := telemetry.TakeSnapshot()
	if s.opts.Run != nil {
		snap.Run = s.opts.Run()
	}
	w.Header().Set("Content-Type", "application/json")
	telemetry.WriteSnapshot(w, snap) //nolint:errcheck // client gone
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="connlab-trace.json"`)
	telemetry.WriteChromeTrace(w, telemetry.Spans(), nil) //nolint:errcheck
}

// StartFlags starts a server when the shared -listen flag was set,
// returning nil (no server, no goroutines, no output) otherwise. The
// address announcement goes to stderr so recorded stdout transcripts
// stay byte-identical.
func StartFlags(tf *telemetry.Flags, tool string, run func() *telemetry.RunInfo) (*Server, error) {
	if tf.Listen == "" {
		return nil, nil
	}
	s, err := Start(tf.Listen, Options{Tool: tool, Run: run})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: observability surface on http://%s\n", tool, s.Addr())
	return s, nil
}
