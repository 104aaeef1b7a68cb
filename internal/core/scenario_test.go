package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"connlab/internal/scenario"
)

// TestRunScenarioEmbedded: the lab runs an embedded data-only scenario
// through its persistent engine and the report satisfies the spec.
func TestRunScenarioEmbedded(t *testing.T) {
	lab := NewLab()
	_, rep, err := scenario.Run(lab.Engine(), "offbyone-fp", scenario.CompileOpts{})
	if err != nil {
		t.Fatalf("scenario.Run: %v", err)
	}
	if len(rep.Scenarios) != 6 {
		t.Errorf("compiled %d cells, want 6", len(rep.Scenarios))
	}
	if rep.Crashed == 0 {
		t.Errorf("off-by-one scenario crashed nothing:\n%s", rep.Canonical())
	}
}

// TestRunScenarioFromFile: a spec file on disk runs identically to an
// embedded one, and a spec whose predicates the run violates surfaces
// the violation as the returned error (report still delivered).
func TestRunScenarioFromFile(t *testing.T) {
	spec, err := scenario.Load("heap-adjacent")
	if err != nil {
		t.Fatal(err)
	}
	// Forge the predicates: claim the unprotected row survives.
	forged := strings.ReplaceAll(spec.String(), "none=shell", "none=no-effect")
	path := filepath.Join(t.TempDir(), "forged.scn")
	if err := os.WriteFile(path, []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	lab := NewLab()
	_, rep, err := scenario.Run(lab.Engine(), path, scenario.CompileOpts{})
	if err == nil {
		t.Fatal("forged predicates accepted")
	}
	if rep == nil {
		t.Fatal("report withheld on predicate violation")
	}
	if !strings.Contains(err.Error(), "code-injection") {
		t.Errorf("violation should name the offending cells: %v", err)
	}
}
