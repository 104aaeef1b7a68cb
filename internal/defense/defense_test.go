package defense

import (
	"testing"

	"connlab/internal/dns"
	"connlab/internal/exploit"
	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/victim"
)

// runExploitUnderCFI fires one exploit kind at a victim with the shadow
// stack installed and returns the result.
func runExploitUnderCFI(t *testing.T, arch isa.Arch, kind exploit.Kind, forward bool) kernel.RunResult {
	t.Helper()
	cfg := kernel.Config{WX: true, Seed: 5}
	tgt, err := exploit.Recon(arch, victim.BuildOpts{}, cfg)
	if err != nil {
		t.Fatalf("recon: %v", err)
	}
	ex, err := exploit.Build(tgt, kind)
	if err != nil {
		t.Fatalf("build: %v", err)
	}

	ss := NewShadowStack()
	cfg.Hooks = ss
	d, err := victim.NewDaemon(arch, victim.BuildOpts{}, cfg)
	if err != nil {
		t.Fatalf("daemon: %v", err)
	}
	if forward {
		ss.Arm(d.Process())
	}
	q := dns.NewQuery(9, "cfi.test", dns.TypeA)
	pkt, err := ex.Response(q)
	if err != nil {
		t.Fatalf("response: %v", err)
	}
	res, err := d.HandleResponse(pkt)
	if err != nil {
		t.Fatalf("handle: %v", err)
	}
	return res
}

func TestCFIAllowsBenignTraffic(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			ss := NewShadowStack()
			cfg := kernel.Config{WX: true, Seed: 5, Hooks: ss}
			d, err := victim.NewDaemon(arch, victim.BuildOpts{}, cfg)
			if err != nil {
				t.Fatalf("daemon: %v", err)
			}
			ss.Arm(d.Process())
			q := dns.NewQuery(1, "ok.example", dns.TypeA)
			resp := dns.NewResponse(q)
			resp.Answers = []dns.RR{dns.A("ok.example", 60, [4]byte{1, 2, 3, 4})}
			pkt, err := resp.Encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			res, err := d.HandleResponse(pkt)
			if err != nil {
				t.Fatalf("handle: %v", err)
			}
			if res.Status != kernel.StatusReturned {
				t.Fatalf("benign traffic under CFI: %v, want returned", res)
			}
			if ss.Violations != 0 {
				t.Errorf("violations = %d, want 0", ss.Violations)
			}
		})
	}
}

// TestCFIBlocksROP: every code-reuse chain dies on its first hijacked
// return — the §IV claim that CFI stops the paper's exploits.
func TestCFIBlocksROP(t *testing.T) {
	cases := []struct {
		arch isa.Arch
		kind exploit.Kind
	}{
		{isa.ArchX86S, exploit.KindRet2Libc},
		{isa.ArchX86S, exploit.KindRopMemcpy},
		{isa.ArchARMS, exploit.KindRopExeclp},
		{isa.ArchARMS, exploit.KindRopMemcpy},
	}
	for _, c := range cases {
		t.Run(string(c.arch)+"/"+string(c.kind), func(t *testing.T) {
			res := runExploitUnderCFI(t, c.arch, c.kind, false)
			if res.Status != kernel.StatusCFI {
				t.Fatalf("status = %v (%v), want cfi-violation", res.Status, res)
			}
		})
	}
}

func TestShadowStackDepthTracksCalls(t *testing.T) {
	ss := NewShadowStack()
	ss.ResetCall(kernel.Sentinel)
	if ss.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", ss.Depth())
	}
	if err := ss.OnControl(isa.ControlCall, 0x100, 0x200, 0x105); err != nil {
		t.Fatalf("call: %v", err)
	}
	if err := ss.OnControl(isa.ControlReturn, 0x210, 0x105, 0); err != nil {
		t.Fatalf("return: %v", err)
	}
	if err := ss.OnControl(isa.ControlReturn, 0x110, 0xBAD, 0); err == nil {
		t.Fatal("mismatched return not vetoed")
	}
}

func TestDiversityShufflesGadgets(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			build := func(seed int64) *image.Image {
				u, err := victim.BuildProgram(arch, victim.BuildOpts{})
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				img, err := image.Link(u, image.DefaultProgramLayout(arch), DiversityOptions(u, seed))
				if err != nil {
					t.Fatalf("link: %v", err)
				}
				return img
			}
			a, b := build(1), build(2)
			pa := symAddr(t, a, "parse_rr")
			pb := symAddr(t, b, "parse_rr")
			if pa == pb {
				t.Errorf("parse_rr at %#x in both diversity builds", pa)
			}
		})
	}
}

// TestDiversifiedBuildStillWorks: a shuffled, padded victim must still
// parse benign traffic — diversity is only useful if it preserves
// semantics.
func TestDiversifiedBuildStillWorks(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			u, err := victim.BuildProgram(arch, victim.BuildOpts{})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			cfg := kernel.Config{Seed: 5, LinkOpts: DiversityOptions(u, 7)}
			libc, err := image.BuildLibc(arch)
			if err != nil {
				t.Fatalf("libc: %v", err)
			}
			proc, err := kernel.Load(u, libc, cfg)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			q := dns.NewQuery(3, "div.example", dns.TypeA)
			resp := dns.NewResponse(q)
			resp.Answers = []dns.RR{dns.A("div.example", 60, [4]byte{9, 9, 9, 9})}
			pkt, err := resp.Encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			addr := proc.HeapBase()
			if f := proc.Mem().WriteBytes(addr, pkt); f != nil {
				t.Fatalf("stage: %v", f)
			}
			res, err := proc.Call("parse_response", addr, uint32(len(pkt)))
			if err != nil {
				t.Fatalf("call: %v", err)
			}
			if res.Status != kernel.StatusReturned || res.RetVal != 0 {
				t.Fatalf("diversified victim misparsed benign packet: %v", res)
			}
		})
	}
}

// TestDiversityBreaksCachedExploit: an exploit harvested from build A
// misfires on build B — the probabilistic protection of §IV.
func TestDiversityBreaksCachedExploit(t *testing.T) {
	// Recon against the stock build (seed-A equivalent).
	cfg := kernel.Config{WX: true, Seed: 5}
	tgt, err := exploit.Recon(isa.ArchX86S, victim.BuildOpts{}, cfg)
	if err != nil {
		t.Fatalf("recon: %v", err)
	}
	ex, err := exploit.Build(tgt, exploit.KindRopMemcpy)
	if err != nil {
		t.Fatalf("build: %v", err)
	}

	// Target runs a diversity build.
	u, err := victim.BuildProgram(isa.ArchX86S, victim.BuildOpts{})
	if err != nil {
		t.Fatalf("build victim: %v", err)
	}
	divCfg := kernel.Config{WX: true, Seed: 5, LinkOpts: DiversityOptions(u, 99)}
	d, err := victim.NewDaemon(isa.ArchX86S, victim.BuildOpts{}, divCfg)
	if err != nil {
		t.Fatalf("daemon: %v", err)
	}
	q := dns.NewQuery(4, "div.example", dns.TypeA)
	pkt, err := ex.Response(q)
	if err != nil {
		t.Fatalf("response: %v", err)
	}
	res, err := d.HandleResponse(pkt)
	if err != nil {
		t.Fatalf("handle: %v", err)
	}
	if res.Status == kernel.StatusShell {
		t.Fatalf("cached exploit still works on diversified build")
	}
}

// symAddr returns the address of a symbol the test needs, failing the
// test if the image does not define it.
func symAddr(t *testing.T, img *image.Image, name string) uint32 {
	t.Helper()
	addr, ok := img.Lookup(name)
	if !ok {
		t.Fatalf("undefined symbol %q", name)
	}
	return addr
}
