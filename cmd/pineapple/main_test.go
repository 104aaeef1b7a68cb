package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunScaleSmoke: a small shared world where every 20th station is a
// full victim. The rogue AP must hijack the attack-phase lookups and
// both victims must end in a shell; the wall-clock line is timing and
// is not checked.
func TestRunScaleSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-stations", "40", "-victim-every", "20"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"attack: hijacked=78 ", "victims: shells=2 "} {
		if !strings.Contains(s, want) {
			t.Errorf("transcript lacks %q:\n%s", want, s)
		}
	}
}

// TestRunBadFlag: an unknown flag is an error, not an exit.
func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunNoPayload: a payload that cannot be built is the NO-PAYLOAD
// verdict, as cmd/attack reports it, not an error: ARM passes arguments
// in registers, so there is no stack-passed ret2libc to deliver.
func TestRunNoPayload(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-arch", "arms", "-kind", "ret2libc"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := "device outcome:         NO-PAYLOAD (exploit: ret2libc passes arguments on the stack"
	if !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
	// The population world has no single verdict: there the build
	// failure stays an error.
	if err := run([]string{"-arch", "arms", "-kind", "ret2libc", "-stations", "4"}, &bytes.Buffer{}); err == nil {
		t.Error("population run with no payload succeeded")
	}
}

// TestRunScenarioNarrows: an explicitly set -arch or -kind narrows a
// -scenario run to the spec's matching cells, as attack and campaign do;
// left at their defaults, the whole spec runs.
func TestRunScenarioNarrows(t *testing.T) {
	cells := func(args ...string) []string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append([]string{"-scenario", "heap-adjacent"}, args...), &out); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		var heads []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "[") {
				heads = append(heads, strings.Fields(line)[1])
			}
		}
		return heads
	}
	all := cells()
	if len(all) != 12 {
		t.Fatalf("whole spec ran %d cells, want 12: %v", len(all), all)
	}
	for _, c := range []struct {
		args []string
		keep func(cell string) bool
	}{
		{[]string{"-arch", "x86s"}, func(c string) bool { return strings.HasPrefix(c, "x86s/") }},
		{[]string{"-kind", "dos"}, func(c string) bool { return strings.Contains(c, "/dos/") }},
		{[]string{"-arch", "arms", "-kind", "code-injection"}, func(c string) bool {
			return strings.HasPrefix(c, "arms/code-injection/")
		}},
	} {
		var want []string
		for _, cell := range all {
			if c.keep(cell) {
				want = append(want, cell)
			}
		}
		if got := cells(c.args...); len(want) == 0 || strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%v ran %v, want %v", c.args, got, want)
		}
	}
}
