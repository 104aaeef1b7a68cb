// Package cli is the front end the lab's commands share: the process
// entry point, the telemetry bracket around a command's work, the
// campaign presets, and the -scenario runner.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"connlab/internal/campaign"
	"connlab/internal/obs"
	"connlab/internal/scenario"
	"connlab/internal/telemetry"
)

// Main runs a command's run function on the process's arguments and
// standard output; when it fails, Main prints the error after the
// tool's name on standard error and exits 1.
func Main(tool string, run func(args []string, stdout io.Writer) error) {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, tool+":", err)
		os.Exit(1)
	}
}

// Telemetry is one command's telemetry bracket. Start arms what the
// shared -metrics, -trace, -listen and profile flags ask for; Finish
// writes it out. Run, Stages and Trace are what Finish records; a
// command replaces them as its results arrive.
type Telemetry struct {
	Run    *telemetry.RunInfo
	Stages []telemetry.ScenarioStages
	Trace  []telemetry.ControlEvent

	flags *telemetry.Flags
	srv   *obs.Server
}

// AddTelemetry registers the shared telemetry flags on fs.
func AddTelemetry(fs *flag.FlagSet) *Telemetry {
	return &Telemetry{flags: telemetry.AddFlags(fs)}
}

// Start enables the telemetry the parsed flags ask for and starts the
// -listen server for run.Tool, whose live run description comes from
// live (nil for none); run is what Finish records unless the command
// replaces it. Instrumented components take their metric handles when
// they are built, so call Start before building a lab, engine or
// daemon, and pair it with a deferred Finish.
func (t *Telemetry) Start(run *telemetry.RunInfo, live func() *telemetry.RunInfo) error {
	if err := t.flags.Start(); err != nil {
		return err
	}
	srv, err := obs.StartFlags(t.flags, run.Tool, live)
	if err != nil {
		return err
	}
	t.Run, t.srv = run, srv
	return nil
}

// Finish writes the requested snapshot, trace and profiles and stops
// the -listen server. A write error is stored in *err unless *err
// already holds the command's own error: defer t.Finish(&err).
func (t *Telemetry) Finish(err *error) {
	ferr := t.flags.Finish(t.Run, t.Stages, t.Trace)
	t.srv.Close()
	if *err == nil {
		*err = ferr
	}
}

// Preset expands a -preset name into campaign cells, each delivered
// through the rogue AP: fleet is the one cell c, and sweep is c at each
// paper protection level with c's CFI, canary and diversity overlays
// kept. matrix is the embedded spec of c's victim variant, compiled
// with c's patched flag and delivered directly.
func Preset(name string, c campaign.Scenario) ([]campaign.Scenario, error) {
	c.Pineapple = true
	switch name {
	case "fleet":
		return []campaign.Scenario{c}, nil
	case "sweep":
		var cells []campaign.Scenario
		for _, p := range campaign.PaperLevels() {
			p.CFI = p.CFI || c.Protection.CFI
			p.Canary = p.Canary || c.Protection.Canary
			p.DiversitySeed = c.Protection.DiversitySeed
			cell := c
			cell.Protection = p
			cells = append(cells, cell)
		}
		return cells, nil
	case "matrix":
		spec, err := scenario.Load(c.Build.Variant.String())
		if err != nil {
			return nil, err
		}
		return scenario.Compile(spec, scenario.CompileOpts{Patched: c.Build.Patched})
	}
	return nil, fmt.Errorf("unknown preset %q", name)
}

// Scenario runs the spec named by a -scenario flag (an embedded name or
// a .scn file) on eng and checks the report against the spec's own
// success predicates. co.Arch, co.Kind and co.Devices narrow the compile
// only when fs's flag of that name was set on the command line; a flag
// left at its default keeps the spec's value. The report is returned
// even when the run or the check fails.
func Scenario(eng *campaign.Engine, name string, co scenario.CompileOpts, fs *flag.FlagSet) (*scenario.Spec, *campaign.Report, error) {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["arch"] {
		co.Arch = ""
	}
	if !set["kind"] {
		co.Kind = ""
	}
	if !set["devices"] {
		co.Devices = 0
	}
	return scenario.Run(eng, name, co)
}

// RunScenario is Scenario printed as a canonical report, followed by the
// hijacked-lookup count when co delivers through the rogue AP and by the
// verdict line when every device met the spec.
func RunScenario(w io.Writer, eng *campaign.Engine, name string, co scenario.CompileOpts, fs *flag.FlagSet) (*campaign.Report, error) {
	_, rep, err := Scenario(eng, name, co, fs)
	if rep != nil {
		fmt.Fprint(w, rep.Canonical())
		if co.Pineapple {
			fmt.Fprintf(w, "lookups hijacked: %d\n", rep.Hijacked)
		}
	}
	if err != nil {
		return rep, err
	}
	fmt.Fprintln(w, "all device outcomes within spec predicates")
	return rep, nil
}
