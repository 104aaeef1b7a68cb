// Other-CVEs: the paper's §V claim — the exploit engine retargets other
// overflow vulnerabilities with only address and packet-crafter changes.
// Two adaptations: a dnsmasq-flavoured DNS victim (different buffer size
// and frame; CVE-2017-14493 class) and an HTTP request-line overflow
// (CVE-2019-8985 class) requiring NUL-free payload discipline.
//
//	go run ./examples/other-cves
package main

import (
	"fmt"
	"log"

	"connlab/internal/campaign"
	"connlab/internal/core"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/victim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== dnsmasq-analog: same engine, new offsets ==")
	lab := core.NewLab()
	lab.Build.Variant = victim.VariantDnsmasq
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		tgt, err := lab.Recon(arch, campaign.LevelWXASLR)
		if err != nil {
			return err
		}
		fmt.Printf("  %-5s recon: ret offset %d (connman was %d), null slots %v\n",
			arch, tgt.Frame.RetOffset,
			victim.RetOffsetFor(arch, victim.BuildOpts{}), tgt.Frame.NullOffsets)
		_, res, err := lab.AutoExploit(arch, campaign.LevelWXASLR)
		if err != nil {
			return err
		}
		fmt.Printf("  %-5s exploit under W⊕X+ASLR -> %s\n", arch, res.Outcome)
	}

	fmt.Println()
	fmt.Println("== HTTP victim: new protocol, new payload constraints ==")
	tgt, err := exploit.ReconHTTP(kernel.Config{Seed: 1001})
	if err != nil {
		return err
	}
	fmt.Printf("  recon: URI buffer at %#x, ret offset %d\n", tgt.BufferAddr, tgt.RetOffset)
	req, err := exploit.BuildHTTPInjection(tgt)
	if err != nil {
		return err
	}
	fmt.Printf("  request line: %q...\n", req[:24])
	d, err := victim.NewHTTPDaemon(kernel.Config{Seed: 2002})
	if err != nil {
		return err
	}
	res, err := d.HandleRequest(req)
	if err != nil {
		return err
	}
	outcome, detail := campaign.Classify(res)
	fmt.Printf("  GET request -> %s (%s)\n", outcome, detail)
	return nil
}
