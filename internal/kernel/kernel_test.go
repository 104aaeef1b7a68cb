package kernel

import (
	"testing"

	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
)

// buildX86Hello returns a program that calls write@plt and strlen@plt and
// returns the length of its message.
func buildX86Hello(t *testing.T) *image.Unit { return buildX86HelloPadded(t, 0) }

// buildX86HelloPadded is buildX86Hello with pad nops opening main, so the
// same addresses hold different code.
func buildX86HelloPadded(t *testing.T, pad int) *image.Unit {
	t.Helper()
	u := image.NewUnit(isa.ArchX86S)
	u.Import("write", "strlen")
	u.AddRodata("msg", []byte("hello, lab\x00"))

	a := x86s.NewAsm()
	for i := 0; i < pad; i++ {
		a.Nop()
	}
	a.PushR(x86s.EBP).MovRR(x86s.EBP, x86s.ESP)
	// strlen(msg)
	a.PushISym("msg", 0)
	a.CallSym("strlen@plt")
	a.AddRI(x86s.ESP, 4)
	a.PushR(x86s.EAX) // save len across the write call (libc clobbers ebx)
	// write(1, msg, len)
	a.PushR(x86s.EAX)
	a.PushISym("msg", 0)
	a.PushI(1)
	a.CallSym("write@plt")
	a.AddRI(x86s.ESP, 12)
	a.PopR(x86s.EAX)
	a.PopR(x86s.EBP).Ret()
	u.AddFuncX86("main", a)
	return u
}

// buildARMHello is the arms twin of buildX86Hello.
func buildARMHello(t *testing.T) *image.Unit { return buildARMHelloPadded(t, 0) }

// buildARMHelloPadded is the arms twin of buildX86HelloPadded.
func buildARMHelloPadded(t *testing.T, pad int) *image.Unit {
	t.Helper()
	u := image.NewUnit(isa.ArchARMS)
	u.Import("write", "strlen")
	u.AddRodata("msg", []byte("hello, lab\x00"))

	a := arms.NewAsm()
	for i := 0; i < pad; i++ {
		a.Nop()
	}
	a.Push(arms.R4, arms.LR)
	a.MovSym(arms.R0, "msg", 0)
	a.BL("strlen@plt")
	a.MovR(arms.R4, arms.R0)
	a.MovR(arms.R2, arms.R0)
	a.MovSym(arms.R1, "msg", 0)
	a.MovW(arms.R0, 1)
	a.BL("write@plt")
	a.MovR(arms.R0, arms.R4)
	a.Pop(arms.R4, arms.PC)
	u.AddFuncARM("main", a)
	return u
}

func loadHello(t *testing.T, arch isa.Arch, cfg Config) *Process {
	t.Helper()
	var prog *image.Unit
	if arch == isa.ArchARMS {
		prog = buildARMHello(t)
	} else {
		prog = buildX86Hello(t)
	}
	libc, err := image.BuildLibc(arch)
	if err != nil {
		t.Fatalf("build libc: %v", err)
	}
	p, err := Load(prog, libc, cfg)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return p
}

func TestHelloBothArchitectures(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			p := loadHello(t, arch, Config{Seed: 1})
			res, err := p.Call("main")
			if err != nil {
				t.Fatalf("call: %v", err)
			}
			if res.Status != StatusReturned {
				t.Fatalf("status = %v (%v), want returned", res.Status, res)
			}
			const msg = "hello, lab"
			if res.RetVal != uint32(len(msg)) {
				t.Errorf("retval = %d, want %d", res.RetVal, len(msg))
			}
			if got := p.Stdout(); got != msg {
				t.Errorf("stdout = %q, want %q", got, msg)
			}
		})
	}
}

func TestASLRMovesLibcAndStack(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			bases := make(map[uint32]bool)
			stacks := make(map[uint32]bool)
			for seed := int64(0); seed < 8; seed++ {
				p := loadHello(t, arch, Config{ASLR: true, Seed: seed})
				bases[p.Libc.Layout.TextBase] = true
				stacks[p.StackTop] = true
			}
			if len(bases) < 2 {
				t.Errorf("ASLR produced %d distinct libc bases, want >= 2", len(bases))
			}
			if len(stacks) < 2 {
				t.Errorf("ASLR produced %d distinct stack tops, want >= 2", len(stacks))
			}
			// Program image must stay fixed (non-PIE), the property the
			// paper's ASLR bypass depends on.
			p1 := loadHello(t, arch, Config{ASLR: true, Seed: 100})
			p2 := loadHello(t, arch, Config{ASLR: true, Seed: 200})
			if p1.Prog.Layout.TextBase != p2.Prog.Layout.TextBase {
				t.Errorf("non-PIE program base moved under ASLR")
			}
		})
	}
}

func TestNoASLRIsDeterministic(t *testing.T) {
	p1 := loadHello(t, isa.ArchX86S, Config{Seed: 1})
	p2 := loadHello(t, isa.ArchX86S, Config{Seed: 2})
	if p1.Libc.Layout.TextBase != p2.Libc.Layout.TextBase {
		t.Errorf("libc base moved without ASLR")
	}
	if p1.StackTop != p2.StackTop {
		t.Errorf("stack top moved without ASLR")
	}
}

func TestPIEMovesProgram(t *testing.T) {
	bases := make(map[uint32]bool)
	for seed := int64(0); seed < 8; seed++ {
		p := loadHello(t, isa.ArchX86S, Config{ASLR: true, PIE: true, Seed: seed})
		bases[p.Prog.Layout.TextBase] = true
	}
	if len(bases) < 2 {
		t.Errorf("PIE produced %d distinct program bases, want >= 2", len(bases))
	}
}

func TestCallUndefinedFunction(t *testing.T) {
	p := loadHello(t, isa.ArchX86S, Config{Seed: 1})
	if _, err := p.Call("nope"); err == nil {
		t.Fatal("expected error calling undefined function")
	}
}

func TestDirectLibcCallSpawnsShell(t *testing.T) {
	// Calling libc system("/bin/sh") directly must register a root shell:
	// this is the ground truth the exploits are judged against.
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			p := loadHello(t, arch, Config{Seed: 1})
			binsh := symAddr(t, p.Libc, image.SymBinSh)
			sys := symAddr(t, p.Libc, "system")
			res, err := p.CallAddr(sys, binsh)
			if err != nil {
				t.Fatalf("call: %v", err)
			}
			if res.Status != StatusShell {
				t.Fatalf("status = %v (%v), want shell", res.Status, res)
			}
			if res.Shell.UID != 0 {
				t.Errorf("shell uid = %d, want 0", res.Shell.UID)
			}
			if len(p.Shells()) != 1 {
				t.Errorf("recorded %d shells, want 1", len(p.Shells()))
			}
		})
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
