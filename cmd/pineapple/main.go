// Command pineapple runs the §III-D remote scenario: a rogue access point
// clones the victim's trusted SSID at a stronger signal, DHCP hands the
// device a malicious resolver, and the next DNS lookups carry the
// exploit.
//
// Usage:
//
//	pineapple -arch arms -kind rop-memcpy -wx -aslr -v
//
// With -stations N it switches to the population-scale variant: one
// shared world where a single rogue AP out-shouts the home router for
// the entire station fleet at once:
//
//	pineapple -stations 100000 -victim-every 25000
package main

import (
	"flag"
	"fmt"
	"io"

	"connlab/cmd/internal/cli"
	"connlab/internal/campaign"
	"connlab/internal/core"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/scenario"
	"connlab/internal/telemetry"
)

func main() { cli.Main("pineapple", run) }

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("pineapple", flag.ContinueOnError)
	fs.SetOutput(stdout)
	archFlag := fs.String("arch", "arms", "victim architecture: x86s or arms")
	kindFlag := fs.String("kind", "rop-memcpy", "exploit kind")
	wx := fs.Bool("wx", true, "enable W⊕X on the device")
	aslr := fs.Bool("aslr", true, "enable ASLR on the device")
	legit := fs.Int("legit-signal", 50, "legitimate AP signal strength")
	rogue := fs.Int("rogue-signal", 90, "pineapple signal strength")
	stations := fs.Int("stations", 0, "population size; >0 runs the scale scenario in one shared world")
	lookups := fs.Int("lookups", 2, "attack-phase lookups per station (scale scenario only)")
	victimEvery := fs.Int("victim-every", 0, "every k-th station is a full victim device (scale scenario only)")
	verbose := fs.Bool("v", false, "print the network event log")
	scenarioFlag := fs.String("scenario", "", "run a declarative scenario (embedded `name` or .scn file) through the rogue AP")
	tel := cli.AddTelemetry(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tel.Start(&telemetry.RunInfo{Tool: "pineapple", Devices: 1, Scenarios: 1}, nil); err != nil {
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
	lab := core.NewLab()
	cell := lab.Scenario(arch, kind, campaign.Protection{WX: *wx, ASLR: *aslr})
	if *scenarioFlag != "" {
		// Every compiled cell delivers through the per-device rogue-AP
		// world instead of handing the packet straight to the daemon. An
		// explicitly set -arch or -kind narrows the spec, as in attack.
		co := scenario.CompileOpts{Pineapple: true, Arch: arch, Kind: kind}
		_, err := cli.RunScenario(stdout, lab.Engine(), *scenarioFlag, co, fs)
		return err
	}
	if *stations > 0 {
		rep, err := lab.Engine().RunPineappleScale(campaign.ScaleConfig{
			Stations:    *stations,
			Lookups:     *lookups,
			VictimEvery: *victimEvery,
			Scenario:    cell,
			Verbose:     *verbose,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, rep.Transcript())
		perSec := float64(rep.Delivered) / (float64(rep.WallNs) / 1e9)
		fmt.Fprintf(stdout, "wall: %.3fs (%.0f datagrams/sec)\n", float64(rep.WallNs)/1e9, perSec)
		if *verbose {
			fmt.Fprintln(stdout, "--- network events ---")
			for _, e := range rep.Events {
				fmt.Fprintln(stdout, " ", e)
			}
		}
		return nil
	}
	// The single-device run makes two attack-phase lookups.
	rep, err := lab.Engine().RunPineapple(cell, *legit, *rogue, 2)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "baseline lookup worked: %v\n", rep.BaselineWorked)
	fmt.Fprintf(stdout, "re-associated to rogue: %v\n", rep.Reassociated)
	fmt.Fprintf(stdout, "victim resolver:        %s\n", rep.VictimDNS)
	fmt.Fprintf(stdout, "lookups hijacked:       %d\n", rep.Hijacked)
	fmt.Fprintf(stdout, "device outcome:         %s (%s)\n", rep.Outcome, rep.Detail)
	if *verbose {
		fmt.Fprintln(stdout, "--- network events ---")
		for _, e := range rep.Events {
			fmt.Fprintln(stdout, " ", e)
		}
	}
	return nil
}
