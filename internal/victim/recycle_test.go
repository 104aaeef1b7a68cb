package victim_test

import (
	"bytes"
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
// config into a PIE or diversity config, or onto another build (canary,
// patched), starts from the same address space byte for byte and handles
// an attack packet exactly as a daemon loaded fresh under that build and
// config does — the same RunResult, fault and shell included. PIE, diversity and a rebuild move parse_response, so a
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
			build := func(o victim.BuildOpts) *image.Unit {
				u, err := victim.BuildProgram(arch, o)
				if err != nil {
					t.Fatal(err)
				}
				return u
			}
			canary, patched := build(victim.BuildOpts{Canary: true}), build(victim.BuildOpts{Patched: true})

			for _, c := range []struct {
				name string
				prog *image.Unit
				cfg  kernel.Config
			}{
				{"pie", prog, kernel.Config{ASLR: true, PIE: true, Seed: 12}},
				{"diversity", prog, kernel.Config{LinkOpts: diverse, Seed: 13}},
				{"diversity wx", prog, kernel.Config{WX: true, LinkOpts: diverse, Seed: 14}},
				{"canary build", canary, kernel.Config{Seed: 11}},
				{"canary build pie", canary, kernel.Config{WX: true, ASLR: true, PIE: true, Seed: 15}},
				{"patched build", patched, kernel.Config{ASLR: true, Seed: 16}},
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
					if !d.RecycleWith(c.prog, libc, c.cfg) {
						t.Fatal("recycle refused")
					}
					fresh, err := victim.NewDaemonWith(c.prog, libc, c.cfg)
					if err != nil {
						t.Fatal(err)
					}
					// Before any run, the address spaces match byte for byte.
					ps, fs := d.Process().Mem().Segments(), fresh.Process().Mem().Segments()
					if len(ps) != len(fs) {
						t.Fatalf("%d segments, fresh has %d", len(ps), len(fs))
					}
					for i := range ps {
						a, b := ps[i], fs[i]
						if a.Name != b.Name || a.Base != b.Base || a.Perm != b.Perm || !bytes.Equal(a.Data, b.Data) {
							t.Errorf("segment %s@%#x differs from fresh %s@%#x", a.Name, a.Base, b.Name, b.Base)
						}
					}
					got, err := d.HandleResponse(pkt)
					if err != nil {
						t.Fatalf("recycled daemon: %v", err)
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
