// Command connmansim loads the Connman-analog victim daemon and feeds it
// DNS responses: a benign one by default, or an oversized malicious one
// with -crash, printing what the emulated parser did. It is the
// quickest way to watch CVE-2017-12865 fire.
//
// Usage:
//
//	connmansim -arch arms            # parse a benign response
//	connmansim -arch arms -crash     # DoS the daemon
//	connmansim -arch x86s -patched -crash   # 1.35 survives
package main

import (
	"flag"
	"fmt"
	"io"

	"connlab/cmd/internal/cli"
	"connlab/internal/campaign"
	"connlab/internal/dns"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

func main() { cli.Main("connmansim", run) }

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("connmansim", flag.ContinueOnError)
	fs.SetOutput(stdout)
	archFlag := fs.String("arch", "x86s", "architecture: x86s or arms")
	patched := fs.Bool("patched", false, "run the patched (1.35) parser")
	crash := fs.Bool("crash", false, "send the malicious oversized response")
	wx := fs.Bool("wx", false, "enable W⊕X")
	aslr := fs.Bool("aslr", false, "enable ASLR")
	seed := fs.Int64("seed", 1, "machine seed")
	tel := cli.AddTelemetry(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tel.Start(&telemetry.RunInfo{Tool: "connmansim", RootSeed: *seed, Devices: 1, Scenarios: 1}, nil); err != nil {
		return err
	}
	defer tel.Finish(&err)

	arch, err := isa.ParseArch(*archFlag)
	if err != nil {
		return err
	}
	opts := victim.BuildOpts{Patched: *patched}
	d, err := victim.NewDaemon(arch, opts, kernel.Config{WX: *wx, ASLR: *aslr, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "connmansim %s on %s (W⊕X=%v ASLR=%v)\n", opts.Version(), arch, *wx, *aslr)

	q := dns.NewQuery(0x2222, "pool.ntp.org", dns.TypeA)
	var pkt []byte
	if *crash {
		pkt, err = exploit.BuildDoS(arch).Response(q)
		fmt.Fprintln(stdout, "sending crafted oversized Type A response...")
	} else {
		resp := dns.NewResponse(q)
		resp.Answers = []dns.RR{dns.A("pool.ntp.org", 300, [4]byte{162, 159, 200, 1})}
		pkt, err = resp.Encode()
		fmt.Fprintln(stdout, "sending benign Type A response...")
	}
	if err != nil {
		return err
	}
	res, err := d.HandleResponse(pkt)
	if err != nil {
		return err
	}
	outcome, detail := campaign.Classify(res)
	fmt.Fprintf(stdout, "parser outcome: %s (%s), %d instructions\n", outcome, detail, res.Instructions)
	if d.Crashed() {
		fmt.Fprintln(stdout, "daemon state: CRASHED (denial of service)")
	} else {
		fmt.Fprintln(stdout, "daemon state: alive")
	}
	return nil
}
