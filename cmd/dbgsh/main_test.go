package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"connlab/internal/obs"
	"connlab/internal/telemetry"
)

// TestTelemetryCmd: the telemetry subcommand renders a -metrics snapshot
// file written by another tool.
func TestTelemetryCmd(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	telemetry.Enable()
	telemetry.Inc(telemetry.CtrEmuRuns)
	snap := telemetry.TakeSnapshot()
	snap.Run = &telemetry.RunInfo{Tool: "campaign", Workers: 2}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := telemetry.WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := telemetryCmd([]string{path}, &sb); err != nil {
		t.Fatalf("telemetryCmd: %v", err)
	}
	if !strings.Contains(sb.String(), "emu_runs") {
		t.Errorf("rendered snapshot missing counters:\n%s", sb.String())
	}
}

// TestTelemetryCmdErrors: wrong arity, missing files and non-snapshot
// JSON are clean errors.
func TestTelemetryCmdErrors(t *testing.T) {
	if err := telemetryCmd(nil, io.Discard); err == nil {
		t.Error("expected a usage error with no arguments")
	}
	if err := telemetryCmd([]string{"/nonexistent/m.json"}, io.Discard); err == nil {
		t.Error("expected an error for a missing file")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := telemetryCmd([]string{bad}, io.Discard); err == nil {
		t.Error("expected an error for malformed JSON")
	}
}

// TestTelemetryWatch: -watch polls a live observability server and
// prints the counters that moved between polls.
func TestTelemetryWatch(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	telemetry.Enable()
	telemetry.Add(telemetry.CtrEmuRuns, 3)
	srv, err := obs.Start("127.0.0.1:0", obs.Options{
		Tool: "test",
		Run:  func() *telemetry.RunInfo { return &telemetry.RunInfo{Tool: "test"} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var sb strings.Builder
	if err := watchTelemetry(srv.Addr(), 0, 1, &sb); err != nil {
		t.Fatalf("watch header poll: %v", err)
	}
	if !strings.Contains(sb.String(), "watching") || !strings.Contains(sb.String(), "tool test") {
		t.Errorf("watch header wrong: %q", sb.String())
	}

	// A counter bumped between two polls shows up as a delta line. The
	// bump happens before the watch starts, so poll 0 is the baseline and
	// poll 1 prints a frame (possibly all-zero deltas) — the frame
	// structure is what's pinned; live movement is covered by check.sh.
	telemetry.Add(telemetry.CtrEmuRuns, 5)
	sb.Reset()
	if err := watchTelemetry(srv.Addr(), 0, 2, &sb); err != nil {
		t.Fatalf("watch: %v", err)
	}
	if !strings.Contains(sb.String(), "[1] spans +") {
		t.Errorf("delta frame missing:\n%s", sb.String())
	}

	if err := watchTelemetry("127.0.0.1:1", 0, 1, io.Discard); err == nil {
		t.Error("expected an error for an unreachable server")
	}
}

// TestDebuggerScript drives the debugger REPL from a script on the x86s
// DoS payload: a symbol breakpoint is hit, the next continue runs into
// the overflow's fault, and the registers show the copy that ran off the
// stack's top.
func TestDebuggerScript(t *testing.T) {
	var out bytes.Buffer
	script := "break get_name\ncontinue\nwhere\ncontinue\nregs\nquit\n"
	if err := run([]string{"-arch", "x86s", "-crash"}, strings.NewReader(script), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{
		"dbgsh: x86s victim, packet staged at 0x9000000 (1946 bytes), pc at parse_response\n",
		"(dbg) breakpoint at get_name\n",
		"(dbg) breakpoint hit at get_name+0x0\n",
		"(dbg) pc = 0x08048170 (get_name+0x0), sp = 0xbfff7ab8\n",
		"(dbg) terminal: fault: memory fault: unmapped write at 0xbfff8000\n",
		"edi  0xbfff8000\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("transcript lacks %q:\n%s", want, out.String())
		}
	}
}

// TestDebuggerFlags: the debugger's flags parse like every other
// command's: -h and unknown flags are errors, which cli.Main turns into
// exit status 1, and a bad -arch names the value.
func TestDebuggerFlags(t *testing.T) {
	for _, args := range [][]string{{"-h"}, {"-no-such-flag"}, {"-arch", "mips"}} {
		if err := run(args, strings.NewReader(""), &bytes.Buffer{}); err == nil {
			t.Errorf("run %v succeeded", args)
		}
	}
}
