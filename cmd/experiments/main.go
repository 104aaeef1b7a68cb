// Command experiments regenerates every paper experiment (E1–E12) and
// prints the reports recorded in EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-exp e8] [-recon-seed N] [-target-seed N] [-workers N]
package main

import (
	"flag"
	"fmt"
	"io"

	"connlab/cmd/internal/cli"
	"connlab/internal/core"
	"connlab/internal/scenario"
	"connlab/internal/telemetry"
)

func main() { cli.Main("experiments", run) }

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stdout)
	exp := fs.String("exp", "all", "experiment id (e1..e12) or all")
	reconSeed := fs.Int64("recon-seed", 1001, "attacker replica seed")
	targetSeed := fs.Int64("target-seed", 2002, "target machine seed")
	workers := fs.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS)")
	scenarioFlag := fs.String("scenario", "", "run a declarative scenario (embedded `name` or .scn file) instead of a paper experiment")
	tel := cli.AddTelemetry(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tel.Start(&telemetry.RunInfo{Tool: "experiments"}, func() *telemetry.RunInfo {
		return &telemetry.RunInfo{Tool: "experiments", RootSeed: *targetSeed, ReconSeed: *reconSeed}
	}); err != nil {
		return err
	}
	defer tel.Finish(&err)

	lab := core.NewLab()
	lab.ReconSeed = *reconSeed
	lab.TargetSeed = *targetSeed
	lab.Workers = *workers

	if *scenarioFlag != "" {
		_, err := cli.RunScenario(stdout, lab.Engine(), *scenarioFlag, scenario.CompileOpts{}, fs)
		return err
	}

	if *exp == "all" {
		out, err := lab.RunAllExperiments()
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
		return nil
	}
	out, err := lab.RunExperiment(*exp)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, out)
	return nil
}
