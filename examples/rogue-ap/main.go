// Rogue-AP: the paper's §III-D Wi-Fi Pineapple scenario as a narrative —
// an IoT device on its home network is lured to a rogue access point
// cloning the trusted SSID at higher power, receives the attacker's
// resolver via DHCP, and is owned by its next DNS lookup.
//
//	go run ./examples/rogue-ap
package main

import (
	"fmt"
	"log"

	"connlab/internal/campaign"
	"connlab/internal/core"
	"connlab/internal/exploit"
	"connlab/internal/isa"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	lab := core.NewLab()
	cell := lab.Scenario(isa.ArchARMS, exploit.KindRopMemcpy, campaign.LevelWXASLR)

	fmt.Println("== attempt 1: pineapple too far away (weak signal) ==")
	rep, err := lab.Engine().RunPineapple(cell, 80, 20, 2)
	if err != nil {
		return err
	}
	fmt.Printf("re-associated: %v, outcome: %s\n\n", rep.Reassociated, rep.Outcome)

	fmt.Println("== attempt 2: pineapple next to the device ==")
	rep, err = lab.Engine().RunPineapple(cell, 50, 95, 2)
	if err != nil {
		return err
	}
	fmt.Printf("baseline lookup:  %v\n", rep.BaselineWorked)
	fmt.Printf("re-associated:    %v (device DNS is now %s)\n", rep.Reassociated, rep.VictimDNS)
	fmt.Printf("lookups hijacked: %d\n", rep.Hijacked)
	fmt.Printf("device outcome:   %s (%s)\n\n", rep.Outcome, rep.Detail)

	fmt.Println("network event log:")
	for _, e := range rep.Events {
		fmt.Println("  ", e)
	}
	return nil
}
