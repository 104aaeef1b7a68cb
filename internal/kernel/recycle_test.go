package kernel

import (
	"bytes"
	"testing"

	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
	"connlab/internal/mem"
)

// recycleUnits returns the hello program extended with a second function
// (so diversity link options move main) and a stack-protector guard (so
// the canary draw is exercised), plus libc.
func recycleUnits(t *testing.T, arch isa.Arch) (prog, libc *image.Unit) {
	t.Helper()
	return guardedHello(t, arch, 0), buildLibc(t, arch)
}

// guardedHello is the hello program with pad nops opening main, a second
// function, a stack-protector guard and a scratch BSS, so it has all five
// sections.
func guardedHello(t *testing.T, arch isa.Arch, pad int) *image.Unit {
	t.Helper()
	var prog *image.Unit
	if arch == isa.ArchARMS {
		prog = buildARMHelloPadded(t, pad)
		prog.AddFuncARM("helper", arms.NewAsm().BX(arms.LR))
	} else {
		prog = buildX86HelloPadded(t, pad)
		prog.AddFuncX86("helper", x86s.NewAsm().Ret())
	}
	prog.AddData("__stack_chk_guard", make([]byte, 4))
	prog.AddBSS("scratch", 64)
	return prog
}

func buildLibc(t *testing.T, arch isa.Arch) *image.Unit {
	t.Helper()
	libc, err := image.BuildLibc(arch)
	if err != nil {
		t.Fatalf("build libc: %v", err)
	}
	return libc
}

// countHooks is a CFI stand-in that counts the transfers it observes.
type countHooks struct{ n int }

func (h *countHooks) OnControl(isa.ControlKind, uint32, uint32, uint32) error {
	h.n++
	return nil
}

// TestRecycleMatchesFreshLoad pins the recycle contract: a process
// recycled from one configuration into another must be observationally
// identical to a fresh Load of the second — same segments (name, base,
// permission, every byte), stack top, canary, GOT, run results and
// stdout — whatever the two configurations' layouts and protections, and
// whatever the trial before wrote into the program's .got, .data and
// .bss (a new diversity build keeps those segments, so Reset, not a
// remap, must restore them).
func TestRecycleMatchesFreshLoad(t *testing.T) {
	diverse := image.Options{Order: []int{1, 0}, Pad: []int{48, 16}}
	shuffled := image.Options{Order: []int{1, 0}, Pad: []int{0, 224}}
	cases := []struct {
		name     string
		from, to Config
	}{
		{"same config", Config{Seed: 1}, Config{Seed: 1}},
		{"new seed fixed layout", Config{Seed: 1}, Config{Seed: 2}},
		{"aslr new seed", Config{ASLR: true, Seed: 1}, Config{ASLR: true, Seed: 2}},
		{"aslr same seed", Config{ASLR: true, Seed: 5}, Config{ASLR: true, Seed: 5}},
		{"aslr on", Config{Seed: 1}, Config{ASLR: true, Seed: 3}},
		{"aslr off", Config{ASLR: true, Seed: 3}, Config{Seed: 4}},
		{"pie on", Config{Seed: 1}, Config{ASLR: true, PIE: true, Seed: 5}},
		{"pie new seed", Config{ASLR: true, PIE: true, Seed: 5}, Config{ASLR: true, PIE: true, Seed: 6}},
		{"pie off", Config{ASLR: true, PIE: true, Seed: 5}, Config{Seed: 5}},
		{"wx on", Config{Seed: 1}, Config{WX: true, Seed: 1}},
		{"wx off", Config{WX: true, ASLR: true, Seed: 8}, Config{ASLR: true, Seed: 9}},
		{"entropy changed", Config{ASLR: true, Seed: 7}, Config{ASLR: true, ASLREntropyPages: 64, Seed: 7}},
		{"diversity on", Config{Seed: 1}, Config{LinkOpts: diverse, Seed: 2}},
		{"diversity changed", Config{LinkOpts: diverse, Seed: 2}, Config{LinkOpts: shuffled, Seed: 3}},
		{"diversity off", Config{WX: true, LinkOpts: diverse, Seed: 2}, Config{WX: true, ASLR: true, Seed: 2}},
		{"diversity changed wx aslr", Config{WX: true, ASLR: true, LinkOpts: diverse, Seed: 2},
			Config{WX: true, ASLR: true, LinkOpts: shuffled, Seed: 3}},
		{"diversity to pie", Config{LinkOpts: diverse, Seed: 2}, Config{ASLR: true, PIE: true, Seed: 5}},
		{"pie to diversity", Config{ASLR: true, PIE: true, Seed: 5}, Config{WX: true, LinkOpts: shuffled, Seed: 6}},
		{"cfi hooks on", Config{Seed: 1}, Config{Hooks: &countHooks{}, Seed: 1}},
		{"cfi hooks off", Config{Hooks: &countHooks{}, Seed: 1}, Config{ASLR: true, PIE: true, Seed: 4}},
	}
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			prog, libc := recycleUnits(t, arch)
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					// Every process gets its own hook, so the counts of the
					// recycled and the fresh process can be compared.
					from, to, freshCfg := withOwnHooks(c.from), withOwnHooks(c.to), withOwnHooks(c.to)
					p, err := Load(prog, libc, from)
					if err != nil {
						t.Fatalf("load: %v", err)
					}
					if _, err := p.Call("main"); err != nil {
						t.Fatalf("warmup call: %v", err)
					}
					scribbleData(t, p)
					if !p.Recycle(to) {
						t.Fatal("recycle refused")
					}
					// Scribble over the GOT and recycle in place: the
					// baseline re-sealed for c.to, not the load's, must
					// come back.
					for i := 0; i < p.Prog.NumImports(); i++ {
						if f := p.Mem().WriteU32(p.Prog.Import(i).GOT, 0xDEADBEEF); f != nil {
							t.Fatal(f)
						}
					}
					if !p.Recycle(to) {
						t.Fatal("same-config recycle refused")
					}
					fresh, err := Load(prog, libc, freshCfg)
					if err != nil {
						t.Fatalf("fresh load: %v", err)
					}
					if p.guardAddr == 0 {
						t.Error("no canary guard seeded")
					}
					compareProcesses(t, p, fresh)
					if to.Hooks != nil {
						if got, want := to.Hooks.(*countHooks).n, freshCfg.Hooks.(*countHooks).n; got == 0 || got != want {
							t.Errorf("hook saw %d transfers, fresh hook %d", got, want)
						}
					}
					if h, ok := from.Hooks.(*countHooks); ok && to.Hooks == nil {
						if n := h.n; n == 0 {
							t.Error("warmup hook saw no transfers")
						} else if _, err := p.Call("main"); err != nil || h.n != n {
							t.Errorf("removed hook still observes transfers (%d -> %d, %v)", n, h.n, err)
						}
					}

					// And back: the baseline re-sealed for c.to must rewind
					// into c.from as cleanly as the load's did.
					scribbleData(t, p)
					back := withOwnHooks(c.from)
					if !p.Recycle(back) {
						t.Fatal("recycle back refused")
					}
					fresh, err = Load(prog, libc, withOwnHooks(c.from))
					if err != nil {
						t.Fatalf("fresh load: %v", err)
					}
					compareProcesses(t, p, fresh)
				})
			}
			t.Run("cross-unit", func(t *testing.T) { recycleAcrossUnits(t, arch, libc) })
		})
	}
}

// scribbleData overwrites every byte of the program's .got, .data and
// .bss through the accessors, as a trial's stores would.
func scribbleData(t *testing.T, p *Process) {
	t.Helper()
	for _, name := range [...]string{".got", ".data", ".bss"} {
		seg := p.Mem().Segment(name)
		if seg == nil {
			t.Fatalf("program has no %s", name)
		}
		if f := p.Mem().WriteBytes(seg.Base, bytes.Repeat([]byte{0xA5}, int(seg.Size()))); f != nil {
			t.Fatal(f)
		}
	}
}

// TestDiversityRecycleKeepsSegments: recycling a process into another
// diversity build of its unit at the same layout replaces .text alone;
// every other program section keeps its *mem.Segment, and the process
// still matches a fresh load.
func TestDiversityRecycleKeepsSegments(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			prog, libc := recycleUnits(t, arch)
			from := Config{WX: true, ASLR: true, LinkOpts: image.Options{Order: []int{1, 0}, Pad: []int{48, 16}}, Seed: 2}
			to := Config{WX: true, ASLR: true, LinkOpts: image.Options{Order: []int{0, 1}, Pad: []int{0, 224}}, Seed: 3}
			p, err := Load(prog, libc, from)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Call("main"); err != nil {
				t.Fatal(err)
			}
			before := map[string]*mem.Segment{}
			for _, s := range p.Mem().Segments() {
				before[s.Name] = s
			}
			scribbleData(t, p)
			if !p.Recycle(to) {
				t.Fatal("recycle refused")
			}
			for _, sec := range p.Prog.Sections {
				seg := p.Mem().Segment(sec.Name)
				if kept := seg == before[sec.Name]; kept != (sec.Name != ".text") {
					t.Errorf("%s: segment kept = %v", sec.Name, kept)
				}
			}
			fresh, err := Load(prog, libc, to)
			if err != nil {
				t.Fatal(err)
			}
			compareProcesses(t, p, fresh)
		})
	}
}

// TestSlidRecycleKeepsSegments: a PIE or ASLR recycle that only slides
// the program and libc moves their segments instead of remapping them.
// Every program and libc segment keeps its *mem.Segment and its sealed
// baseline (the bytes a trial scribbles over come back on the next
// recycle), and every one whose bytes the slide leaves alone keeps its
// stamp; the process still matches a fresh Load.
func TestSlidRecycleKeepsSegments(t *testing.T) {
	cases := []struct {
		name     string
		from, to Config
	}{
		{"aslr", Config{ASLR: true, Seed: 1}, Config{ASLR: true, Seed: 2}},
		{"aslr on", Config{Seed: 1}, Config{ASLR: true, WX: true, Seed: 3}},
		{"pie", Config{ASLR: true, PIE: true, Seed: 5}, Config{ASLR: true, PIE: true, Seed: 6}},
		{"pie off", Config{ASLR: true, PIE: true, Seed: 5}, Config{Seed: 5}},
	}
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		prog, libc := recycleUnits(t, arch)
		for _, c := range cases {
			t.Run(string(arch)+"/"+c.name, func(t *testing.T) {
				p, err := Load(prog, libc, c.from)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.Call("main"); err != nil {
					t.Fatal(err)
				}
				type seg struct {
					s     *mem.Segment
					base  uint32
					stamp uint64
					data  []byte
				}
				before := map[string]seg{}
				for _, s := range p.Mem().Segments() {
					before[s.Name] = seg{s, s.Base, s.Stamp(), bytes.Clone(s.Data)}
				}
				scribbleData(t, p)
				if !p.Recycle(c.to) {
					t.Fatal("recycle refused")
				}
				moved := false
				for _, s := range p.Mem().Segments() {
					b, ok := before[s.Name]
					if s.Name == "stack" || s.Name == "heap" {
						continue
					}
					moved = moved || ok && s.Base != b.base
					switch {
					case !ok || s != b.s:
						t.Errorf("%s: remapped, want the segment moved", s.Name)
					case bytes.Equal(s.Data, b.data) && s.Stamp() != b.stamp:
						t.Errorf("%s: stamp %d -> %d with its bytes unchanged", s.Name, b.stamp, s.Stamp())
					}
				}
				if !moved {
					t.Fatal("no image moved: the case tests nothing")
				}
				scribbleData(t, p)
				if !p.Recycle(c.to) {
					t.Fatal("same-config recycle refused")
				}
				compareProcesses(t, p, loadFor(t, prog, libc, c.to))
			})
		}
	}
}

// loadFor loads prog and libc under cfg, failing the test on error.
func loadFor(t *testing.T, prog, libc *image.Unit, cfg Config) *Process {
	t.Helper()
	p, err := Load(prog, libc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// recycleAcrossUnits walks one process through builds of the same
// program, the way the campaign's per-ISA daemon pool does: a plain
// build without a guard, a canary build (guard and a second function), a
// patched build (main's code moved, so the same addresses hold different
// instructions), a diversity link of it, and a recon crash dummy handed
// on to a hooked W⊕X+ASLR+PIE device. After each recycle the process must
// match a fresh Load of that unit and config byte for byte.
func recycleAcrossUnits(t *testing.T, arch isa.Arch, libc *image.Unit) {
	var plain *image.Unit
	if arch == isa.ArchARMS {
		plain = buildARMHello(t)
	} else {
		plain = buildX86Hello(t)
	}
	canary, patched := guardedHello(t, arch, 0), guardedHello(t, arch, 3)
	diverse := image.Options{Order: []int{1, 0}, Pad: []int{40, 8}}
	steps := []struct {
		name string
		prog *image.Unit
		cfg  Config
	}{
		{"plain", plain, Config{Seed: 1}},
		// The same seed replays no draws: the canary drawn for the
		// guard-less plain build must be the one written now.
		{"canary", canary, Config{Seed: 1}},
		{"patched", patched, Config{WX: true, Seed: 2}},
		{"diversity", patched, Config{WX: true, LinkOpts: diverse, Seed: 3}},
		{"canary again", canary, Config{Seed: 3}},
		{"recon dummy", plain, Config{Seed: 1001}},
		{"device", canary, Config{WX: true, ASLR: true, PIE: true, Hooks: &countHooks{}, Seed: 7}},
	}
	p, err := Load(steps[0].prog, libc, steps[0].cfg)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for i, st := range steps[1:] {
		if _, err := p.Call("main"); err != nil {
			t.Fatalf("%s: warmup call: %v", steps[i].name, err)
		}
		cfg := withOwnHooks(st.cfg)
		if !p.RecycleWith(st.prog, libc, cfg) {
			t.Fatalf("%s -> %s: recycle refused", steps[i].name, st.name)
		}
		if u, _ := p.Units(); u != st.prog {
			t.Fatalf("%s: process not rebound to the new unit", st.name)
		}
		fresh, err := Load(st.prog, libc, withOwnHooks(st.cfg))
		if err != nil {
			t.Fatalf("%s: fresh load: %v", st.name, err)
		}
		t.Run(steps[i].name+"->"+st.name, func(t *testing.T) { compareProcesses(t, p, fresh) })
	}
}

// withOwnHooks gives cfg a new countHooks if it has hooks.
func withOwnHooks(cfg Config) Config {
	if cfg.Hooks != nil {
		cfg.Hooks = &countHooks{}
	}
	return cfg
}

// compareProcesses checks that p is observationally identical to fresh,
// then runs main on both and compares the results.
func compareProcesses(t *testing.T, p, fresh *Process) {
	t.Helper()
	ps, fs := p.Mem().Segments(), fresh.Mem().Segments()
	if len(ps) != len(fs) {
		t.Fatalf("%d segments, fresh has %d", len(ps), len(fs))
	}
	for i := range ps {
		a, b := ps[i], fs[i]
		if a.Name != b.Name || a.Base != b.Base || a.Perm != b.Perm {
			t.Errorf("segment %d: %s@%#x %v, fresh %s@%#x %v", i, a.Name, a.Base, a.Perm, b.Name, b.Base, b.Perm)
		}
		if !bytes.Equal(a.Data, b.Data) {
			t.Errorf("segment %s: contents differ from fresh", a.Name)
		}
	}
	if p.Mem().WX() != fresh.Mem().WX() {
		t.Errorf("W⊕X %v, fresh %v", p.Mem().WX(), fresh.Mem().WX())
	}
	if p.StackTop != fresh.StackTop {
		t.Errorf("stack top %#x, fresh %#x", p.StackTop, fresh.StackTop)
	}
	if p.canary != fresh.canary || p.guardAddr != fresh.guardAddr {
		t.Errorf("canary %#x@%#x, fresh %#x@%#x", p.canary, p.guardAddr, fresh.canary, fresh.guardAddr)
	}
	if p.Prog.NumImports() != fresh.Prog.NumImports() {
		t.Fatalf("%d GOT slots, fresh %d", p.Prog.NumImports(), fresh.Prog.NumImports())
	}
	for i := 0; i < fresh.Prog.NumImports(); i++ {
		imp, fimp := p.Prog.Import(i), fresh.Prog.Import(i)
		want, _ := fresh.Mem().ReadU32(fimp.GOT)
		got, f := p.Mem().ReadU32(imp.GOT)
		if imp != fimp || f != nil || got != want {
			t.Errorf("GOT %s: %#x@%#x (%v), fresh %s: %#x@%#x", imp.Name, got, imp.GOT, f, fimp.Name, want, fimp.GOT)
		}
	}

	res, err := p.Call("main")
	if err != nil {
		t.Fatalf("recycled call: %v", err)
	}
	want, err := fresh.Call("main")
	if err != nil {
		t.Fatalf("fresh call: %v", err)
	}
	if res.Status != StatusReturned || res.Status != want.Status || res.RetVal != want.RetVal ||
		res.PC != want.PC || res.Instructions != want.Instructions {
		t.Errorf("recycled run = %+v, fresh = %+v", res, want)
	}
	if p.Stdout() != fresh.Stdout() {
		t.Errorf("recycled stdout %q, fresh %q", p.Stdout(), fresh.Stdout())
	}
}

// TestRecycleASLRSameSeed: recycling an ASLR process for its own seed
// keeps the images it already has, and matches a fresh ASLR load byte for
// byte.
func TestRecycleASLRSameSeed(t *testing.T) {
	cfg := Config{ASLR: true, Seed: 5}
	p := loadHello(t, isa.ArchX86S, cfg)
	if _, err := p.Call("main"); err != nil {
		t.Fatalf("warmup call: %v", err)
	}
	prog, libc := p.Prog, p.Libc
	if !p.Recycle(cfg) {
		t.Fatal("same-seed ASLR recycle refused")
	}
	if p.Prog != prog || p.Libc != libc {
		t.Error("same-seed recycle relinked an image whose placement did not change")
	}
	compareProcesses(t, p, loadHello(t, isa.ArchX86S, cfg))
}

// TestRecycleRefusals: a recycle that cannot reset the address space (a
// segment mapped since the seal) or cannot link (invalid diversity
// options) is refused and leaves the process usable.
func TestRecycleRefusals(t *testing.T) {
	p := loadHello(t, isa.ArchX86S, Config{ASLR: true, Seed: 1})
	if _, err := p.Mem().Map("scratch", 0x10000000, Page, 0); err != nil {
		t.Fatal(err)
	}
	if p.Recycle(Config{ASLR: true, Seed: 2}) {
		t.Fatal("recycle of unsealed memory accepted, want refused")
	}
	if res, err := p.Call("main"); err != nil || res.Status != StatusReturned {
		t.Fatalf("call after refused recycle: %+v, %v", res, err)
	}
	p.Mem().Unmap("scratch")

	if p.Recycle(Config{LinkOpts: image.Options{Order: []int{7}}, Seed: 2}) {
		t.Fatal("recycle with an invalid permutation accepted, want refused")
	}
	if res, err := p.Call("main"); err != nil || res.Status != StatusReturned {
		t.Fatalf("call after refused recycle: %+v, %v", res, err)
	}

	armsProg, armsLibc := recycleUnits(t, isa.ArchARMS)
	if p.RecycleWith(armsProg, armsLibc, Config{ASLR: true, Seed: 2}) {
		t.Fatal("recycle onto another ISA's units accepted, want refused")
	}
	if res, err := p.Call("main"); err != nil || res.Status != StatusReturned {
		t.Fatalf("call after refused recycle: %+v, %v", res, err)
	}

	if !p.Recycle(Config{ASLR: true, Seed: 2}) {
		t.Fatal("recycle refused after the extra segment was unmapped")
	}
	compareProcesses(t, p, loadHello(t, isa.ArchX86S, Config{ASLR: true, Seed: 2}))
}
