package core_test

import (
	"fmt"

	"connlab/internal/campaign"
	"connlab/internal/core"
	"connlab/internal/exploit"
	"connlab/internal/isa"
)

// Example_attack shows the one-call path from protection posture to
// attack outcome.
func Example_attack() {
	lab := core.NewLab()
	r, err := lab.RunAttack(isa.ArchARMS, exploit.KindRopMemcpy, campaign.LevelWXASLR)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(r.Outcome)
	// Output: SHELL
}

// Example_autoExploit shows the automated generator choosing the paper's
// strategy for a posture.
func Example_autoExploit() {
	lab := core.NewLab()
	ex, res, err := lab.AutoExploit(isa.ArchX86S, campaign.LevelWX)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(ex.Kind, res.Outcome)
	// Output: ret2libc SHELL
}

// Example_pineapple runs the remote man-in-the-middle delivery.
func Example_pineapple() {
	lab := core.NewLab()
	cell := lab.Scenario(isa.ArchARMS, exploit.KindRopMemcpy, campaign.LevelWXASLR)
	rep, err := lab.Engine().RunPineapple(cell, 50, 90, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(rep.Reassociated, rep.Outcome)
	// Output: true SHELL
}

// Example_mitigation shows a CFI-protected device surviving the same
// chain as a blocked attack.
func Example_mitigation() {
	lab := core.NewLab()
	p := campaign.LevelWXASLR
	p.CFI = true
	r, err := lab.RunAttack(isa.ArchARMS, exploit.KindRopMemcpy, p)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(r.Outcome)
	// Output: BLOCKED
}
