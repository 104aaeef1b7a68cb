package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"connlab/internal/telemetry"
)

// TestRunCodeInjection: the classic unprotected pop on x86.
func TestRunCodeInjection(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-arch", "x86s", "-kind", "code-injection"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "outcome:    SHELL") {
		t.Errorf("expected SHELL outcome:\n%s", s)
	}
}

// TestRunGolden: recorded CLI transcripts stay byte-identical
// (scripts/check.sh compares the CLI output too): the W⊕X+ASLR ROP
// shell on ARM, and the diversity-broken execlp chain whose hang is
// proven and fast-forwarded to the same budget-exhausted verdict.
func TestRunGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"arms_rop-memcpy_wx_aslr.golden", []string{"-arch", "arms", "-kind", "rop-memcpy", "-wx", "-aslr"}},
		{"arms_rop-execlp_wx_div30.golden", []string{"-arch", "arms", "-kind", "rop-execlp", "-wx", "-diversity", "30"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(c.args, &out); err != nil {
			t.Fatalf("%s: run: %v", c.golden, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: transcript differs from golden:\n got: %q\nwant: %q", c.golden, out.String(), want)
		}
	}
}

// TestRunAuto: -auto picks a working strategy for the posture.
func TestRunAuto(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-arch", "x86s", "-auto", "-wx"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "auto-selected strategy:") || !strings.Contains(s, "outcome:") {
		t.Errorf("unexpected output:\n%s", s)
	}
}

// TestRunTrace: -trace arms the flight recorder, prints the hijack
// trace (E2: the x86 code-injection gadget walk) and writes a parseable
// Chrome trace and metrics snapshot.
func TestRunTrace(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	var out bytes.Buffer
	err := run([]string{
		"-arch", "x86s", "-kind", "code-injection",
		"-trace", tracePath, "-metrics", metricsPath,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "outcome:    SHELL") {
		t.Fatalf("expected SHELL outcome:\n%s", s)
	}
	if !strings.Contains(s, "hijack flight recorder") || !strings.Contains(s, "ret") {
		t.Errorf("missing flight-recorder dump:\n%s", s)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if raw, err = os.ReadFile(metricsPath); err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics snapshot does not parse: %v", err)
	}
	if snap.Run == nil || snap.Run.Tool != "attack" || snap.TraceEvents == 0 {
		t.Errorf("snapshot run=%+v trace_events=%d", snap.Run, snap.TraceEvents)
	}
}

// TestRunBadArch: a bogus architecture is a clean error.
func TestRunBadArch(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-arch", "mips"}, &out); err == nil {
		t.Error("expected an error for an unknown arch")
	}
}
