package defense

import (
	"bytes"
	"testing"

	"connlab/internal/dns"
	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/victim"
)

// TestEquivSubstituteChangesBytes: substitution really rewrites
// instructions (the binaries differ) across seeds.
func TestEquivSubstituteChangesBytes(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			stock, err := victim.BuildProgram(arch, victim.BuildOpts{})
			if err != nil {
				t.Fatal(err)
			}
			subst, err := victim.BuildProgram(arch, victim.BuildOpts{})
			if err != nil {
				t.Fatal(err)
			}
			n, err := EquivSubstitute(subst, 11)
			if err != nil {
				t.Fatal(err)
			}
			if n < 3 {
				t.Fatalf("only %d substitutions", n)
			}
			diff := false
			for i := range stock.Funcs {
				if !bytes.Equal(stock.Funcs[i].Bytes, subst.Funcs[i].Bytes) {
					diff = true
				}
				if len(stock.Funcs[i].Bytes) != len(subst.Funcs[i].Bytes) {
					t.Errorf("%s: substitution changed code size", stock.Funcs[i].Name)
				}
			}
			if !diff {
				t.Error("no bytes changed")
			}
		})
	}
}

// TestSubstitutedBuildsBehaveIdentically: across several seeds, the
// substituted victim parses the same benign response with the same
// result and identical cache contents — semantic equivalence, the
// defining property of equivalent-instruction randomization.
func TestSubstitutedBuildsBehaveIdentically(t *testing.T) {
	q := dns.NewQuery(0x66, "equiv.check.example", dns.TypeA)
	resp := dns.NewResponse(q)
	resp.Answers = []dns.RR{dns.A("equiv.check.example", 60, [4]byte{4, 4, 4, 4})}
	pkt, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}

	run := func(arch isa.Arch, seed int64) (kernel.RunResult, []byte) {
		u, err := victim.BuildProgram(arch, victim.BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if seed != 0 {
			if _, err := EquivSubstitute(u, seed); err != nil {
				t.Fatal(err)
			}
		}
		libc, err := image.BuildLibc(arch)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := kernel.Load(u, libc, kernel.Config{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		addr := proc.HeapBase()
		if f := proc.Mem().WriteBytes(addr, pkt); f != nil {
			t.Fatal(f)
		}
		res, err := proc.Call("parse_response", addr, uint32(len(pkt)))
		if err != nil {
			t.Fatal(err)
		}
		cacheAddr := symAddr(t, proc.Prog, "dns_cache")
		cache, f := proc.Mem().ReadBytes(cacheAddr, 64)
		if f != nil {
			t.Fatal(f)
		}
		return res, cache
	}

	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			baseRes, baseCache := run(arch, 0)
			for seed := int64(1); seed <= 5; seed++ {
				res, cache := run(arch, seed)
				if res.Status != baseRes.Status || res.RetVal != baseRes.RetVal {
					t.Errorf("seed %d: result %v differs from stock %v", seed, res, baseRes)
				}
				if !bytes.Equal(cache, baseCache) {
					t.Errorf("seed %d: cache contents differ", seed)
				}
			}
		})
	}
}

// TestDiversityOptionsDeterministic: the same seed yields the same
// layout, so a vendor can reproduce any shipped build.
func TestDiversityOptionsDeterministic(t *testing.T) {
	u, err := victim.BuildProgram(isa.ArchX86S, victim.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	a := DiversityOptions(u, 42)
	b := DiversityOptions(u, 42)
	for i := range a.Order {
		if a.Order[i] != b.Order[i] || a.Pad[i] != b.Pad[i] {
			t.Fatal("same seed produced different layouts")
		}
	}
	c := DiversityOptions(u, 43)
	same := true
	for i := range a.Order {
		if a.Order[i] != c.Order[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced the same permutation")
	}
}
