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
	"os"

	"connlab/internal/campaign"
	"connlab/internal/dnsserver"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/netsim"
	"connlab/internal/obs"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dnsmitm:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	archFlag := flag.String("arch", "x86s", "victim architecture: x86s or arms")
	kindFlag := flag.String("kind", "code-injection", "exploit kind")
	wx := flag.Bool("wx", false, "enable W⊕X on the device")
	aslr := flag.Bool("aslr", false, "enable ASLR on the device")
	tf := telemetry.AddFlags(flag.CommandLine)
	flag.Parse()

	// Telemetry must be live before the network is built: instrumented
	// components take their metric handles at construction.
	if err := tf.Start(); err != nil {
		return err
	}
	srv, err := obs.StartFlags(tf, "dnsmitm", nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	defer func() {
		run := &telemetry.RunInfo{Tool: "dnsmitm", Devices: 1, Scenarios: 1}
		if ferr := tf.Finish(run, nil, nil); ferr != nil && err == nil {
			err = ferr
		}
	}()

	arch := isa.Arch(*archFlag)
	cfg := kernel.Config{WX: *wx, ASLR: *aslr, Seed: 2002}

	// Attacker recon + payload.
	tgt, err := exploit.Recon(arch, victim.BuildOpts{},
		kernel.Config{WX: *wx, ASLR: *aslr, Seed: 1001})
	if err != nil {
		return err
	}
	ex, err := exploit.Build(tgt, exploit.Kind(*kindFlag))
	if err != nil {
		return err
	}
	fmt.Printf("payload: %s\n", ex.Description)

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
	mitm, err := dnsserver.RunMITMWire(attackerHost, ex.AppendResponse)
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
		fmt.Println(" ", e)
	}
	outcome, detail := campaign.Classify(daemon.LastResult())
	fmt.Printf("queries hijacked: %d\n", mitm.Queries)
	fmt.Printf("device outcome:   %s (%s)\n", outcome, detail)
	return nil
}
