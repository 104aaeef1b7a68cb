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
	"os"

	"connlab/internal/core"
	"connlab/internal/obs"
	"connlab/internal/scenario"
	"connlab/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stdout)
	exp := fs.String("exp", "all", "experiment id (e1..e12) or all")
	reconSeed := fs.Int64("recon-seed", 1001, "attacker replica seed")
	targetSeed := fs.Int64("target-seed", 2002, "target machine seed")
	workers := fs.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS)")
	scenarioFlag := fs.String("scenario", "", "run a declarative scenario (embedded `name` or .scn file) instead of a paper experiment")
	tf := telemetry.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Telemetry must be live before the lab is built: instrumented
	// components take their metric handles at construction.
	if err := tf.Start(); err != nil {
		return err
	}
	srv, err := obs.StartFlags(tf, "experiments", func() *telemetry.RunInfo {
		return &telemetry.RunInfo{Tool: "experiments", RootSeed: *targetSeed, ReconSeed: *reconSeed}
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	defer func() {
		run := &telemetry.RunInfo{Tool: "experiments"}
		if ferr := tf.Finish(run, nil, nil); ferr != nil && err == nil {
			err = ferr
		}
	}()

	lab := core.NewLab()
	lab.ReconSeed = *reconSeed
	lab.TargetSeed = *targetSeed
	lab.Workers = *workers

	if *scenarioFlag != "" {
		_, rep, rerr := scenario.Run(lab.Engine(), *scenarioFlag, scenario.CompileOpts{})
		if rep != nil {
			fmt.Fprint(stdout, rep.Canonical())
		}
		if rerr != nil {
			return rerr
		}
		fmt.Fprintf(stdout, "all device outcomes within spec predicates\n")
		return nil
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
