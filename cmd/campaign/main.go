// Command campaign drives the parallel campaign engine: fleets of
// emulated IoT devices attacked under configurable protection postures,
// with recon cached per configuration and results deterministic for any
// worker count.
//
// Usage:
//
//	campaign -preset fleet -arch x86s -kind code-injection -devices 10 -patched-every 4
//	campaign -preset matrix                  # arch × kind × paper-level grid
//	campaign -preset sweep -arch arms -kind rop-memcpy -devices 5
//	campaign -preset fleet -devices 8 -canonical   # byte-stable report
//
// The matrix preset is compiled from the embedded declarative scenario
// for the selected -variant. Any scenario — embedded or a .scn file on
// disk — runs the same way, with the report checked against the spec's
// own success predicates:
//
//	campaign -scenario heap-adjacent
//	campaign -scenario ./my-cve.scn -arch arms -devices 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"connlab/cmd/internal/cli"
	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/scenario"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

func main() { cli.Main("campaign", run) }

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stdout)
	preset := fs.String("preset", "fleet", "campaign preset: fleet, matrix, or sweep")
	archFlag := fs.String("arch", "x86s", "victim architecture: x86s or arms")
	kindFlag := fs.String("kind", "code-injection",
		"exploit kind: dos, code-injection, ret2libc, rop-execlp, rop-memcpy")
	devices := fs.Int("devices", 10, "fleet size per scenario (fleet and sweep presets)")
	patchedEvery := fs.Int("patched-every", 0, "every Nth device runs patched 1.35 firmware (0 = none)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	rootSeed := fs.Int64("seed", campaign.DefaultRootSeed, "campaign root seed (per-device seeds derive from it)")
	reconSeed := fs.Int64("recon-seed", campaign.DefaultReconSeed, "attacker replica seed")
	wx := fs.Bool("wx", false, "enable W⊕X on the targets")
	aslr := fs.Bool("aslr", false, "enable ASLR on the targets")
	cfi := fs.Bool("cfi", false, "enable the CFI shadow stack mitigation")
	canary := fs.Bool("canary", false, "build targets with stack canaries")
	diversity := fs.Int64("diversity", 0, "software diversity seed (0 = off)")
	patched := fs.Bool("patched", false, "deploy the patched (1.35) firmware fleet-wide")
	variant := fs.String("variant", "connman", "victim variant: connman or dnsmasq")
	scenarioFlag := fs.String("scenario", "", "run a declarative scenario (embedded `name` or .scn file) instead of a preset")
	canonical := fs.Bool("canonical", false, "print the byte-stable canonical report (no timings)")
	jsonOut := fs.String("json", "", "write the full report (config included) as JSON to `file` (- for stdout)")
	tel := cli.AddTelemetry(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tel.Start(&telemetry.RunInfo{Tool: "campaign"}, func() *telemetry.RunInfo {
		return &telemetry.RunInfo{Tool: "campaign", RootSeed: *rootSeed, ReconSeed: *reconSeed}
	}); err != nil {
		return err
	}
	defer tel.Finish(&err)

	arch, err := isa.ParseArch(*archFlag)
	if err != nil {
		return err
	}
	kind, err := exploit.ParseKind(*kindFlag)
	if err != nil {
		return err
	}
	build := victim.BuildOpts{Patched: *patched}
	if build.Variant, err = victim.ParseVariant(*variant); err != nil {
		return err
	}

	eng := campaign.New(campaign.Config{Workers: *workers, RootSeed: *rootSeed, ReconSeed: *reconSeed})
	var rep *campaign.Report
	var spec *scenario.Spec
	if *scenarioFlag != "" {
		spec, rep, err = cli.Scenario(eng, *scenarioFlag, scenario.CompileOpts{
			PatchedEvery: *patchedEvery, Patched: *patched,
			Canary: *canary, CFI: *cfi, DiversitySeed: *diversity,
			Arch: arch, Kind: kind, Devices: *devices,
		}, fs)
	} else {
		var scenarios []campaign.Scenario
		scenarios, err = cli.Preset(*preset, campaign.Scenario{
			Arch: arch, Kind: kind, Build: build, Devices: *devices, PatchedEvery: *patchedEvery,
			Protection: campaign.Protection{
				WX: *wx, ASLR: *aslr, CFI: *cfi, Canary: *canary, DiversitySeed: *diversity,
			},
		})
		if err != nil {
			return err
		}
		rep, err = eng.Run(scenarios)
	}
	if rep == nil {
		return err
	}
	if *canonical {
		fmt.Fprint(stdout, rep.Canonical())
	} else {
		fmt.Fprintln(stdout, rep)
		fmt.Fprint(stdout, rep.Table())
	}
	if *scenarioFlag != "" && err == nil && !*canonical {
		fmt.Fprintf(stdout, "scenario %s: all device outcomes within spec predicates\n", spec.Name)
	}
	if *jsonOut != "" {
		if jerr := writeReportJSON(*jsonOut, rep, stdout); jerr != nil && err == nil {
			err = jerr
		}
	}
	tel.Run, tel.Stages = rep.RunInfo("campaign"), rep.StageAggregates()
	// Flight-recorder events ride in the device results; collect them
	// for the trace export.
	for si := range rep.Scenarios {
		for di := range rep.Scenarios[si].Devices {
			tel.Trace = append(tel.Trace, rep.Scenarios[si].Devices[di].Trace...)
		}
	}
	return err
}

// writeReportJSON writes the report to path, with "-" meaning stdout.
func writeReportJSON(path string, rep *campaign.Report, stdout io.Writer) error {
	if path == "-" {
		return rep.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
