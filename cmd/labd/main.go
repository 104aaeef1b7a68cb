// Command labd is the lab's observability daemon: it runs campaigns on
// a live engine while serving the full ops surface — Prometheus
// /metrics, schema-v2 /snapshot JSON, SSE /events and /spans streams,
// Chrome-trace /trace downloads and pprof — the long-running
// campaign-as-a-service shape of the engine.
//
// Usage:
//
//	labd -listen 127.0.0.1:8089 -preset fleet -devices 32 -repeat 0
//	labd -listen :0 -devices 8 -hold          # serve until Ctrl-C
//
// Watch it live:
//
//	curl http://ADDR/metrics
//	curl -N http://ADDR/events
//	dbgsh telemetry -watch ADDR
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"connlab/cmd/internal/cli"
	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/obs"
	"connlab/internal/telemetry"
)

func main() {
	stop := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		close(stop)
	}()
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "labd:", err)
		os.Exit(1)
	}
}

// run is the daemon body; stop asks it to wind down (main wires it to
// SIGINT/SIGTERM, tests close it directly).
func run(args []string, stdout io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("labd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	listen := fs.String("listen", "127.0.0.1:0", "serve the observability surface on `addr` (:0 picks a port)")
	preset := fs.String("preset", "fleet", "campaign preset: fleet, matrix, or sweep")
	archFlag := fs.String("arch", "x86s", "victim architecture: x86s or arms")
	kindFlag := fs.String("kind", "code-injection",
		"exploit kind: dos, code-injection, ret2libc, rop-execlp, rop-memcpy")
	devices := fs.Int("devices", 8, "fleet size per scenario (fleet and sweep presets)")
	patchedEvery := fs.Int("patched-every", 0, "every Nth device runs patched firmware (0 = none)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	rootSeed := fs.Int64("seed", campaign.DefaultRootSeed, "campaign root seed")
	reconSeed := fs.Int64("recon-seed", campaign.DefaultReconSeed, "attacker replica seed")
	repeat := fs.Int("repeat", 1, "campaigns to run back to back (0 = loop until signal or -max-runtime)")
	hold := fs.Bool("hold", false, "keep serving after the campaigns finish")
	maxRuntime := fs.Duration("max-runtime", 0, "hard wall-clock cap on the whole process (0 = none)")
	eventsLevel := fs.String("events-level", "info", "event-log threshold: debug, info, or warn")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// labd exists to observe, so telemetry is always on; the engine must
	// be built afterwards so its components take live handles.
	telemetry.Enable()
	lvl, ok := telemetry.ParseEventLevel(*eventsLevel)
	if !ok {
		return fmt.Errorf("unknown -events-level %q", *eventsLevel)
	}
	telemetry.SetEventLevel(lvl)

	arch, err := isa.ParseArch(*archFlag)
	if err != nil {
		return err
	}
	kind, err := exploit.ParseKind(*kindFlag)
	if err != nil {
		return err
	}
	scenarios, err := cli.Preset(*preset, campaign.Scenario{
		Arch: arch, Kind: kind, Devices: *devices, PatchedEvery: *patchedEvery,
	})
	if err != nil {
		return err
	}
	totalDevices := 0
	for _, s := range scenarios {
		n := s.Devices
		if n <= 0 {
			n = 1
		}
		totalDevices += n
	}

	eng := campaign.New(campaign.Config{
		Workers: *workers, RootSeed: *rootSeed, ReconSeed: *reconSeed,
	})
	runInfo := telemetry.RunInfo{
		Tool: "labd", Workers: eng.Workers(), RootSeed: *rootSeed,
		ReconSeed: *reconSeed, Scenarios: len(scenarios), Devices: totalDevices,
	}
	srv, err := obs.Start(*listen, obs.Options{
		Tool: "labd",
		Run:  func() *telemetry.RunInfo { ri := runInfo; return &ri },
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	// The address line is labd's primary output: scripts parse it to
	// find the ephemeral port.
	fmt.Fprintf(stdout, "labd: serving http://%s\n", srv.Addr())

	var timeout <-chan time.Time
	if *maxRuntime > 0 {
		timeout = time.After(*maxRuntime)
	}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		case <-timeout:
			return true
		default:
			return false
		}
	}

	for i := 0; (*repeat == 0 || i < *repeat) && !stopped(); i++ {
		rep, err := eng.Run(scenarios)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "labd: campaign %d complete: %d scenarios, %d devices, %d owned, %d crashed\n",
			i+1, len(rep.Scenarios), totalDevices, rep.Owned, rep.Crashed)
	}
	if *hold && !stopped() {
		fmt.Fprintln(stdout, "labd: holding (Ctrl-C to exit)")
		select {
		case <-stop:
		case <-timeout:
		}
	}
	return nil
}
