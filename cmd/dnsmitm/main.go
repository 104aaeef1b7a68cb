// Command dnsmitm demonstrates the attacker's man-in-the-middle DNS
// server on the simulated network: it stands up a victim proxy host and
// a malicious resolver, routes a client lookup through them, and reports
// what the crafted response did to the device.
//
// Usage:
//
//	dnsmitm -arch x86s -kind code-injection
//	dnsmitm -arch arms -kind rop-memcpy -wx -aslr
package main

import (
	"flag"
	"fmt"
	"io"

	"connlab/cmd/internal/cli"
	"connlab/internal/campaign"
	"connlab/internal/dnsserver"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/netsim"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

func main() { cli.Main("dnsmitm", run) }

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("dnsmitm", flag.ContinueOnError)
	fs.SetOutput(stdout)
	archFlag := fs.String("arch", "x86s", "victim architecture: x86s or arms")
	kindFlag := fs.String("kind", "code-injection", "exploit kind")
	wx := fs.Bool("wx", false, "enable W⊕X on the device")
	aslr := fs.Bool("aslr", false, "enable ASLR on the device")
	tel := cli.AddTelemetry(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tel.Start(&telemetry.RunInfo{Tool: "dnsmitm", Devices: 1, Scenarios: 1}, nil); err != nil {
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
	cfg := kernel.Config{WX: *wx, ASLR: *aslr, Seed: 2002}

	// Attacker recon + payload.
	tgt, err := exploit.Recon(arch, victim.BuildOpts{},
		kernel.Config{WX: *wx, ASLR: *aslr, Seed: 1001})
	if err != nil {
		return err
	}
	ex, err := exploit.Build(tgt, kind)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "payload: %s\n", ex.Description)

	// Wired network: device <-> attacker resolver.
	net := netsim.New()
	net.Verbose = true
	deviceHost, err := net.AddHost("iot-device", netsim.IP{192, 168, 1, 50})
	if err != nil {
		return err
	}
	attackerHost, err := net.AddHost("attacker", netsim.IP{192, 168, 1, 66})
	if err != nil {
		return err
	}
	deviceHost.DNS = netsim.IP{192, 168, 1, 66}

	daemon, err := victim.NewDaemon(arch, victim.BuildOpts{}, cfg)
	if err != nil {
		return err
	}
	if _, err := dnsserver.RunProxy(deviceHost, daemon); err != nil {
		return err
	}
	mitm, err := dnsserver.RunMITMWire(attackerHost, ex.AppendAnswer)
	if err != nil {
		return err
	}
	client, err := dnsserver.NewClient(deviceHost)
	if err != nil {
		return err
	}
	if _, err := client.Lookup(netsim.Addr{IP: deviceHost.IP, Port: dnsserver.DNSPort},
		"firmware.iot-vendor.example"); err != nil {
		return err
	}
	net.Run(64)

	for _, e := range net.Events {
		fmt.Fprintln(stdout, " ", e)
	}
	outcome, detail := campaign.Classify(daemon.LastResult())
	fmt.Fprintf(stdout, "queries hijacked: %d\n", mitm.Queries)
	fmt.Fprintf(stdout, "device outcome:   %s (%s)\n", outcome, detail)
	return nil
}
