// Quickstart: load the Connman-analog victim, crash it with the
// CVE-2017-12865 oversized DNS response, then generate a full exploit
// automatically and watch it spawn a (simulated) root shell.
//
//	go run ./examples/quickstart
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
	// 1. A vulnerable Connman 1.34 analog, running as a root daemon.
	daemon, err := victim.NewDaemon(isa.ArchARMS, victim.BuildOpts{}, kernel.Config{Seed: 1})
	if err != nil {
		return err
	}
	fmt.Println("== step 1: denial of service ==")
	res, err := core.FireAt(daemon, exploit.BuildDoS(isa.ArchARMS))
	if err != nil {
		return err
	}
	fmt.Printf("crafted response -> %v\n", res)
	fmt.Printf("daemon crashed: %v\n\n", daemon.Crashed())

	// 2. The patched 1.35 parser rejects the same packet.
	patched, err := victim.NewDaemon(isa.ArchARMS, victim.BuildOpts{Patched: true},
		kernel.Config{Seed: 1})
	if err != nil {
		return err
	}
	fmt.Println("== step 2: the 1.35 patch ==")
	res, err = core.FireAt(patched, exploit.BuildDoS(isa.ArchARMS))
	if err != nil {
		return err
	}
	fmt.Printf("same response vs patched parser -> %v\n\n", res)

	// 3. Full remote-code-execution exploit, generated automatically for
	// the strongest paper protection level (W⊕X + ASLR).
	fmt.Println("== step 3: automatic exploit generation (W⊕X + ASLR) ==")
	lab := core.NewLab()
	ex, attack, err := lab.AutoExploit(isa.ArchARMS, campaign.LevelWXASLR)
	if err != nil {
		return err
	}
	fmt.Printf("strategy: %s\n", ex.Kind)
	fmt.Printf("payload:  %s\n", ex.Description)
	fmt.Printf("result:   %s (%s)\n", attack.Outcome, attack.Detail)
	return nil
}
