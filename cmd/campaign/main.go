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

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/obs"
	"connlab/internal/scenario"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

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
	tf := telemetry.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Telemetry must be live before the engine is built: instrumented
	// components take their metric handles at construction.
	if err := tf.Start(); err != nil {
		return err
	}
	srv, err := obs.StartFlags(tf, "campaign", func() *telemetry.RunInfo {
		return &telemetry.RunInfo{Tool: "campaign", RootSeed: *rootSeed, ReconSeed: *reconSeed}
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	// Flags left at their defaults act as "unset" for scenario filters.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	arch := isa.Arch(*archFlag)
	if arch != isa.ArchX86S && arch != isa.ArchARMS {
		return fmt.Errorf("unknown arch %q", *archFlag)
	}
	build := victim.BuildOpts{Patched: *patched}
	switch *variant {
	case "connman":
	case "dnsmasq":
		build.Variant = victim.VariantDnsmasq
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}
	prot := campaign.Protection{
		WX: *wx, ASLR: *aslr, CFI: *cfi, Canary: *canary, DiversitySeed: *diversity,
	}
	kind := exploit.Kind(*kindFlag)

	eng := campaign.New(campaign.Config{Workers: *workers, RootSeed: *rootSeed, ReconSeed: *reconSeed})
	var rep *campaign.Report
	var spec *scenario.Spec
	if *scenarioFlag != "" {
		co := scenario.CompileOpts{
			PatchedEvery: *patchedEvery, Patched: *patched,
			Canary: *canary, CFI: *cfi, DiversitySeed: *diversity,
		}
		if explicit["arch"] {
			co.Arch = arch
		}
		if explicit["kind"] {
			co.Kind = kind
		}
		if explicit["devices"] {
			co.Devices = *devices
		}
		// A -scenario run is checked against the spec's own success
		// predicates: the spec is executable documentation.
		spec, rep, err = scenario.Run(eng, *scenarioFlag, co)
	} else {
		var scenarios []campaign.Scenario
		switch *preset {
		case "fleet":
			scenarios = []campaign.Scenario{{
				Arch: arch, Kind: kind, Protection: prot, Build: build,
				Devices: *devices, PatchedEvery: *patchedEvery, Pineapple: true,
			}}
		case "sweep":
			for _, p := range campaign.PaperLevels() {
				p.CFI = p.CFI || *cfi
				p.Canary = p.Canary || *canary
				p.DiversitySeed = *diversity
				scenarios = append(scenarios, campaign.Scenario{
					Arch: arch, Kind: kind, Protection: p, Build: build,
					Devices: *devices, PatchedEvery: *patchedEvery, Pineapple: true,
				})
			}
		case "matrix":
			// The paper matrix is compiled from the embedded declarative
			// spec for the variant — the same cells the old hand-written
			// enumeration produced, pinned byte-identical by the scenario
			// package's golden test.
			matrix, err := scenario.Load(*variant)
			if err != nil {
				return err
			}
			if scenarios, err = scenario.Compile(matrix, scenario.CompileOpts{Patched: *patched}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown preset %q", *preset)
		}
		rep, err = eng.Run(scenarios)
	}
	if rep != nil {
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
		// Flight-recorder events ride in the device results; collect them
		// for the trace export.
		var ctl []telemetry.ControlEvent
		for si := range rep.Scenarios {
			for di := range rep.Scenarios[si].Devices {
				ctl = append(ctl, rep.Scenarios[si].Devices[di].Trace...)
			}
		}
		if ferr := tf.Finish(rep.RunInfo("campaign"), rep.StageAggregates(), ctl); ferr != nil && err == nil {
			err = ferr
		}
	} else if ferr := tf.Finish(&telemetry.RunInfo{Tool: "campaign"}, nil, nil); ferr != nil && err == nil {
		err = ferr
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
