package victim_test

import (
	"reflect"
	"testing"

	"connlab/internal/defense"
	"connlab/internal/dns"
	"connlab/internal/exploit"
	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/victim"
)

// TestRecycledDaemonMatchesFresh: a daemon recycled from a no-protection
// config into a PIE or diversity config handles an attack packet exactly
// as a daemon loaded fresh under that config does — the same RunResult,
// fault and shell included. PIE and diversity move parse_response, so a
// recycled daemon must not keep calling the old entry point.
func TestRecycledDaemonMatchesFresh(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			prog, err := victim.BuildProgram(arch, victim.BuildOpts{})
			if err != nil {
				t.Fatal(err)
			}
			libc, err := image.BuildLibc(arch)
			if err != nil {
				t.Fatal(err)
			}
			none := kernel.Config{Seed: 11}
			tgt, err := exploit.Recon(arch, victim.BuildOpts{}, none)
			if err != nil {
				t.Fatalf("recon: %v", err)
			}
			ex, err := exploit.Build(tgt, exploit.KindCodeInjection)
			if err != nil {
				t.Fatalf("build exploit: %v", err)
			}
			pkt, err := ex.Response(dns.NewQuery(0xBEEF, "update.iot-vendor.example", dns.TypeA))
			if err != nil {
				t.Fatalf("craft response: %v", err)
			}
			diverse := defense.DiversityOptions(prog, 5)

			for _, c := range []struct {
				name string
				cfg  kernel.Config
			}{
				{"pie", kernel.Config{ASLR: true, PIE: true, Seed: 12}},
				{"diversity", kernel.Config{LinkOpts: diverse, Seed: 13}},
				{"diversity wx", kernel.Config{WX: true, LinkOpts: diverse, Seed: 14}},
			} {
				t.Run(c.name, func(t *testing.T) {
					d, err := victim.NewDaemonWith(prog, libc, none)
					if err != nil {
						t.Fatal(err)
					}
					// The warm-up attack lands and resolves parse_response
					// at its unprotected address.
					if res, err := d.HandleResponse(pkt); err != nil || res.Status != kernel.StatusShell {
						t.Fatalf("warm-up attack: %v, %v; want shell", res, err)
					}
					if !d.Recycle(c.cfg) {
						t.Fatal("recycle refused")
					}
					got, err := d.HandleResponse(pkt)
					if err != nil {
						t.Fatalf("recycled daemon: %v", err)
					}
					fresh, err := victim.NewDaemonWith(prog, libc, c.cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.HandleResponse(pkt)
					if err != nil {
						t.Fatalf("fresh daemon: %v", err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("recycled daemon: %v (%+v)\nfresh daemon:    %v (%+v)", got, got, want, want)
					}
					if d.Crashed() != fresh.Crashed() || d.Handled() != fresh.Handled() {
						t.Errorf("recycled crashed=%v handled=%d, fresh crashed=%v handled=%d",
							d.Crashed(), d.Handled(), fresh.Crashed(), fresh.Handled())
					}
				})
			}
		})
	}
}
