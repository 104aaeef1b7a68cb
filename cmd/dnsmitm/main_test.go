package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunGolden: the default run (x86 code injection through the MITM
// resolver) stays byte-identical to its recorded transcript, event log
// included (scripts/check.sh compares the CLI output too).
func TestRunGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "x86s_code-injection.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("transcript differs from golden:\n got: %q\nwant: %q", out.String(), want)
	}
}

// TestRunROP: the W⊕X+ASLR memcpy chain on ARM rides the hijacked
// lookup to a shell.
func TestRunROP(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-arch", "arms", "-kind", "rop-memcpy", "-wx", "-aslr"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "queries hijacked: 1") || !strings.Contains(s, "device outcome:   SHELL") {
		t.Errorf("unexpected output:\n%s", s)
	}
}

// TestRunBadFlag: unknown flags error instead of exiting the process.
func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, &bytes.Buffer{}); err == nil {
		t.Error("expected an error for an unknown flag")
	}
}
