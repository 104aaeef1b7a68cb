package core

import (
	"strings"
	"testing"

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
)

// TestEveryExperimentReportRuns smoke-tests all report generators.
func TestEveryExperimentReportRuns(t *testing.T) {
	lab := NewLab()
	for _, id := range ExperimentIDs() {
		t.Run(id, func(t *testing.T) {
			out, err := lab.RunExperiment(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(out) < 40 {
				t.Errorf("%s: suspiciously short report: %q", id, out)
			}
		})
	}
	if _, err := lab.RunExperiment("e99"); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestReportContentSpotChecks(t *testing.T) {
	lab := NewLab()
	e8, err := lab.RunExperiment("e8")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SHELL", "CRASH", "rop-memcpy", "W⊕X+ASLR"} {
		if !strings.Contains(e8, want) {
			t.Errorf("e8 report missing %q", want)
		}
	}
	e10, err := lab.RunExperiment("e10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e10, "diversity") || !strings.Contains(e10, "cfi") {
		t.Error("e10 report missing mitigation rows")
	}
}

func TestProtectionString(t *testing.T) {
	cases := map[string]campaign.Protection{
		"none":                              {},
		"W⊕X":                               {WX: true},
		"W⊕X+ASLR":                          {WX: true, ASLR: true},
		"ASLR+CFI":                          {ASLR: true, CFI: true},
		"canary":                            {Canary: true},
		"W⊕X+ASLR+PIE+CFI+canary+diversity": {WX: true, ASLR: true, PIE: true, CFI: true, Canary: true, DiversitySeed: 3},
	}
	for want, p := range cases {
		if got := p.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", p, got, want)
		}
	}
}

func TestStrategyForMatchesPaper(t *testing.T) {
	cases := []struct {
		arch     isa.Arch
		wx, aslr bool
		want     exploit.Kind
	}{
		{isa.ArchX86S, false, false, exploit.KindCodeInjection},
		{isa.ArchARMS, false, false, exploit.KindCodeInjection},
		{isa.ArchX86S, true, false, exploit.KindRet2Libc},
		{isa.ArchARMS, true, false, exploit.KindRopExeclp},
		{isa.ArchX86S, true, true, exploit.KindRopMemcpy},
		{isa.ArchARMS, true, true, exploit.KindRopMemcpy},
	}
	for _, c := range cases {
		if got := exploit.StrategyFor(c.arch, c.wx, c.aslr); got != c.want {
			t.Errorf("StrategyFor(%s, %v, %v) = %s, want %s", c.arch, c.wx, c.aslr, got, c.want)
		}
	}
}

// TestMatrixDeterminism: identical seeds produce identical outcomes.
func TestMatrixDeterminism(t *testing.T) {
	run := func() string {
		lab := NewLab()
		cells, err := lab.paperMatrix()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := lab.Engine().Run(cells)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Canonical()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two matrix runs differ:\n%s\nvs\n%s", a, b)
	}
}
