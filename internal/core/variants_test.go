package core

import (
	"testing"

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/victim"
)

// TestE11DnsmasqVariant reproduces the §V adaptability claim: the same
// exploit engine, pointed at a different DNS-overflow victim (the
// dnsmasq analog with a 512-byte buffer, shifted offsets, and on ARM a
// second pointer slot to NULL), produces working exploits after
// re-running reconnaissance — "minimal modification includes basic
// changes such as changing variables to memory addresses suitable for
// the targeted vulnerability".
func TestE11DnsmasqVariant(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		for _, p := range campaign.PaperLevels() {
			t.Run(string(arch)+"/"+p.String(), func(t *testing.T) {
				lab := NewLab()
				lab.Build.Variant = victim.VariantDnsmasq
				_, res, err := lab.AutoExploit(arch, p)
				if err != nil {
					t.Fatalf("auto exploit: %v", err)
				}
				if res.Outcome != campaign.OutcomeShell {
					t.Fatalf("outcome = %s (%s), want SHELL", res.Outcome, res.Detail)
				}
			})
		}
	}
}

// TestDnsmasqDiscoveredOffsetsDiffer confirms the variant really has a
// different frame, so nothing is accidentally shared with the Connman
// analog.
func TestDnsmasqDiscoveredOffsetsDiffer(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			opts := victim.BuildOpts{Variant: victim.VariantDnsmasq}
			tgt, err := exploit.Recon(arch, opts, kernel.Config{Seed: 2})
			if err != nil {
				t.Fatalf("recon: %v", err)
			}
			if want := victim.RetOffsetFor(arch, opts); tgt.Frame.RetOffset != want {
				t.Errorf("ret offset = %d, want %d", tgt.Frame.RetOffset, want)
			}
			wantNulls := victim.NullOffsetsFor(arch, opts)
			if len(tgt.Frame.NullOffsets) != len(wantNulls) {
				t.Errorf("null offsets = %v, want %v", tgt.Frame.NullOffsets, wantNulls)
			}
			connman := victim.RetOffsetFor(arch, victim.BuildOpts{})
			if tgt.Frame.RetOffset == connman {
				t.Error("dnsmasq variant shares the Connman frame layout")
			}
		})
	}
}
