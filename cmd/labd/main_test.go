package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"connlab/internal/telemetry"
)

// startLabd runs the daemon in a goroutine against a pipe, scans stdout
// for the serving line, and keeps draining output so the pipe never
// blocks the daemon. It returns the base URL and channels for the
// remaining lines and the final error.
func startLabd(t *testing.T, args []string, stop chan struct{}) (string, <-chan string, <-chan error) {
	t.Helper()
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		err := run(args, pw, stop)
		pw.Close()
		errc <- err
	}()
	lines := make(chan string, 64)
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "labd: serving http://"); ok {
				urlc <- "http://" + rest
				continue
			}
			select {
			case lines <- line:
			default:
			}
		}
		close(lines)
	}()
	select {
	case u := <-urlc:
		return u, lines, errc
	case err := <-errc:
		t.Fatalf("labd exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("labd did not announce its address")
	}
	return "", nil, nil
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeWhileRunning is the acceptance path: a campaign loop runs
// (-repeat 0) while every endpoint answers, then stop winds it down.
func TestServeWhileRunning(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	stop := make(chan struct{})
	base, _, errc := startLabd(t, []string{
		"-listen", "127.0.0.1:0", "-devices", "4", "-workers", "2",
		"-repeat", "0", "-max-runtime", "60s",
	}, stop)

	// The campaign loop is live; poll until telemetry shows movement and
	// a stage span has landed (recon alone moves connlab_emu_runs before
	// any span is recorded).
	deadline := time.Now().Add(30 * time.Second)
	for {
		body := get(t, base+"/metrics")
		if strings.Contains(body, "# TYPE connlab_emu_runs counter") &&
			!strings.Contains(body, "connlab_emu_runs 0\n") &&
			strings.Contains(get(t, base+"/spans?once=1"), "event: span") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no emulator activity or span visible:\n%.500s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(get(t, base+"/snapshot")), &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if snap.SchemaVersion != 2 {
		t.Errorf("schema_version = %d, want 2", snap.SchemaVersion)
	}
	if snap.Run == nil || snap.Run.Tool != "labd" || snap.Run.Devices != 4 {
		t.Errorf("run metadata wrong: %+v", snap.Run)
	}
	if snap.EventCount == 0 {
		t.Error("no events recorded by a live campaign")
	}

	if body := get(t, base+"/events?once=1"); !strings.Contains(body, "event: event") {
		t.Errorf("/events?once=1 produced no frames:\n%.300s", body)
	}
	if body := get(t, base+"/spans?once=1"); !strings.Contains(body, "event: span") {
		t.Errorf("/spans?once=1 produced no frames:\n%.300s", body)
	}
	var trace []map[string]any
	if err := json.Unmarshal([]byte(get(t, base+"/trace")), &trace); err != nil {
		t.Fatalf("/trace not a trace_event array: %v", err)
	}
	if len(trace) == 0 {
		t.Error("trace empty during live campaign")
	}
	if body := get(t, base+"/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("pprof cmdline empty")
	}

	close(stop)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("labd exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("labd did not stop")
	}
}

// TestTraceLanes runs an 8-worker Pineapple fleet and checks the Chrome
// trace shows distinct per-worker stage lanes and a netsim epoch lane,
// all keyed by attempt IDs.
func TestTraceLanes(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	stop := make(chan struct{})
	base, lines, errc := startLabd(t, []string{
		"-listen", "127.0.0.1:0", "-devices", "16", "-workers", "8",
		"-repeat", "1", "-hold", "-max-runtime", "60s",
	}, stop)

	// Wait for the campaign to finish so the trace covers all 16 devices.
	deadline := time.After(30 * time.Second)
waitDone:
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("labd output closed before campaign completed")
			}
			if strings.Contains(line, "campaign 1 complete") {
				break waitDone
			}
		case <-deadline:
			t.Fatal("campaign never completed")
		}
	}

	var trace []map[string]any
	if err := json.Unmarshal([]byte(get(t, base+"/trace")), &trace); err != nil {
		t.Fatal(err)
	}
	stageTids := map[float64]bool{}  // pid 1: campaign workers
	netsimTids := map[float64]bool{} // pid 3: netsim epochs
	attempts := map[string]bool{}
	for _, ev := range trace {
		if ev["ph"] != "X" {
			continue
		}
		pid, _ := ev["pid"].(float64)
		tid, _ := ev["tid"].(float64)
		switch pid {
		case 1:
			stageTids[tid] = true
		case 3:
			netsimTids[tid] = true
		}
		if args, ok := ev["args"].(map[string]any); ok {
			if a, ok := args["attempt"].(string); ok {
				attempts[a] = true
			}
		}
	}
	// On a multi-core box the 8 workers spread into distinct lanes; with
	// GOMAXPROCS=1 a single goroutine can drain the whole queue, so the
	// live check only requires the lane group to exist (multi-tid lane
	// rendering is pinned by telemetry's TestWriteChromeTrace).
	if len(stageTids) == 0 {
		t.Error("no campaign stage lanes in trace")
	}
	if runtime.GOMAXPROCS(0) >= 4 && len(stageTids) < 2 {
		t.Errorf("want multiple worker lanes, got tids %v", stageTids)
	}
	if len(netsimTids) == 0 {
		t.Error("no netsim epoch lane in trace")
	}
	// 16 devices → 16 distinct splitmix64 attempt IDs.
	if len(attempts) < 16 {
		t.Errorf("want >= 16 distinct attempt ids, got %d: %v", len(attempts), attempts)
	}

	close(stop)
	if err := <-errc; err != nil {
		t.Fatalf("labd exited with error: %v", err)
	}
}

// TestBadFlags covers the error paths without starting a server.
func TestBadFlags(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	for _, args := range [][]string{
		{"-preset", "nope"},
		{"-arch", "mips"},
		{"-events-level", "loud"},
	} {
		if err := run(args, io.Discard, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
