package image

import (
	"slices"
	"testing"

	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
	"connlab/internal/mem"
)

// tinyX86Unit builds a unit with one import, one function, and data.
func tinyX86Unit(t *testing.T) *Unit {
	t.Helper()
	u := NewUnit(isa.ArchX86S)
	u.Import("memcpy")
	u.AddRodata("msg", []byte("hi\x00"))
	u.AddData("counter", []byte{1, 0, 0, 0})
	u.AddBSS("scratch", 64)

	a := x86s.NewAsm()
	a.MovRISym(x86s.EAX, "msg", 0)
	a.CallSym("memcpy@plt")
	a.Ret()
	u.AddFuncX86("main", a)
	return u
}

func TestLinkX86LayoutAndSymbols(t *testing.T) {
	u := tinyX86Unit(t)
	layout := DefaultProgramLayout(isa.ArchX86S)
	img, err := Link(u, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []string{"main", "memcpy@plt", "memcpy@got", "msg", "counter",
		"scratch", "__text_start", "__text_end", "__bss_start"} {
		if _, ok := img.Lookup(sym); !ok {
			t.Errorf("missing symbol %q", sym)
		}
	}
	if n := img.NumImports(); n != 1 {
		t.Fatalf("%d imports, want 1", n)
	}
	if imp := img.Import(0); imp.Name != "memcpy" || imp.PLT != layout.TextBase || imp.GOT != layout.GOTBase {
		t.Errorf("import %+v, want memcpy with its stub at the text base and its slot at the got base", imp)
	}
	// The PLT stub must be the jmp-through-GOT form.
	text := img.Section(".text")
	if text == nil || text.Data[0] != 0xFF || text.Data[1] != 0x25 {
		t.Error("x86 PLT stub is not jmp [got]")
	}
	// Reloc applied: mov eax, imm32 holds msg's address.
	mainAddr := symAddr(t, img, "main")
	msgAddr := symAddr(t, img, "msg")
	off := mainAddr - layout.TextBase
	imm := uint32(text.Data[off+1]) | uint32(text.Data[off+2])<<8 |
		uint32(text.Data[off+3])<<16 | uint32(text.Data[off+4])<<24
	if imm != msgAddr {
		t.Errorf("abs32 reloc = %#x, want %#x", imm, msgAddr)
	}
}

func TestLinkRejectsBadInput(t *testing.T) {
	u := tinyX86Unit(t)
	if _, err := Link(u, Layout{TextBase: 0x1000}, Options{}); err == nil {
		t.Error("imports without GOT base accepted")
	}

	dup := NewUnit(isa.ArchX86S)
	a := x86s.NewAsm()
	a.Ret()
	dup.AddFuncX86("f", a)
	b := x86s.NewAsm()
	b.Ret()
	dup.AddFuncX86("f", b)
	if _, err := Link(dup, DefaultProgramLayout(isa.ArchX86S), Options{}); err == nil {
		t.Error("duplicate symbol accepted")
	}

	undef := NewUnit(isa.ArchX86S)
	c := x86s.NewAsm()
	c.CallSym("ghost")
	c.Ret()
	undef.AddFuncX86("g", c)
	if _, err := Link(undef, DefaultProgramLayout(isa.ArchX86S), Options{}); err == nil {
		t.Error("undefined symbol accepted")
	}

	wrongArch := NewUnit(isa.ArchARMS)
	d := x86s.NewAsm()
	d.Ret()
	wrongArch.AddFuncX86("h", d)
	if wrongArch.Err() == nil {
		t.Error("x86 function in arms unit accepted")
	}
}

func TestLinkOptionsValidation(t *testing.T) {
	u := tinyX86Unit(t)
	if _, err := Link(u, DefaultProgramLayout(isa.ArchX86S), Options{Order: []int{0, 0}}); err == nil {
		t.Error("bad order length accepted")
	}
	u2 := tinyX86Unit(t)
	if _, err := Link(u2, DefaultProgramLayout(isa.ArchX86S), Options{Order: []int{5}}); err == nil {
		t.Error("out-of-range order accepted")
	}
}

func TestARMLinkAndPLTStub(t *testing.T) {
	u := NewUnit(isa.ArchARMS)
	u.Import("write")
	a := arms.NewAsm()
	a.Push(arms.LR)
	a.BL("write@plt")
	a.Pop(arms.PC)
	u.AddFuncARM("main", a)
	img, err := Link(u, DefaultProgramLayout(isa.ArchARMS), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stub := symAddr(t, img, "write@plt")
	text := img.Section(".text")
	// Stub: movw r12 / movt r12 / ldr r12,[r12] / bx r12.
	for i, wantOp := range []arms.Op{arms.OpMovW, arms.OpMovT, arms.OpLdr, arms.OpBX} {
		off := stub - text.Addr + uint32(i*4)
		w := uint32(text.Data[off]) | uint32(text.Data[off+1])<<8 |
			uint32(text.Data[off+2])<<16 | uint32(text.Data[off+3])<<24
		in, err := arms.Decode(w)
		if err != nil || in.Op != wantOp {
			t.Errorf("stub word %d: %v op=%v want %v", i, err, in.Op, wantOp)
		}
	}
}

func TestLibraryLayoutDerivation(t *testing.T) {
	l := LibraryLayout(0x70000000)
	if l.TextBase != 0x70000000 || l.RODataBase <= l.TextBase || l.DataBase <= l.RODataBase {
		t.Errorf("library layout = %+v", l)
	}
}

func TestBuildLibcBothArches(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		u, err := BuildLibc(arch)
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		img, err := Link(u, LibraryLayout(DefaultLibcBase(arch)), Options{})
		if err != nil {
			t.Fatalf("%s: link: %v", arch, err)
		}
		for _, sym := range []string{"memcpy", "memset", "strlen", "system",
			"execlp", "execve", "exit", "write", SymBinSh, SymSh} {
			if _, ok := img.Lookup(sym); !ok {
				t.Errorf("%s: libc missing %q", arch, sym)
			}
		}
		// The /bin/sh string content is really there.
		ro := img.Section(".rodata")
		addr := symAddr(t, img, SymBinSh)
		got := string(ro.Data[addr-ro.Addr : addr-ro.Addr+7])
		if got != "/bin/sh" {
			t.Errorf("%s: str_bin_sh = %q", arch, got)
		}
	}
}

func TestMapIntoAndFuncAt(t *testing.T) {
	u := tinyX86Unit(t)
	img, err := Link(u, DefaultProgramLayout(isa.ArchX86S), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	if err := img.MapInto(m, "", nil); err != nil {
		t.Fatal(err)
	}
	if m.Segment(".text") == nil || m.Segment(".bss") == nil {
		t.Error("sections not mapped")
	}
	// Text is RX, data RW.
	if m.Segment(".text").Perm != mem.PermRX {
		t.Errorf("text perm = %v", m.Segment(".text").Perm)
	}
	if m.Segment(".data").Perm != mem.PermRW {
		t.Errorf("data perm = %v", m.Segment(".data").Perm)
	}

	mainAddr := symAddr(t, img, "main")
	sym, ok := img.FuncAt(mainAddr + 2)
	if !ok || sym.Name != "main" {
		t.Errorf("FuncAt = %+v, %v", sym, ok)
	}
	if _, ok := img.FuncAt(0x1); ok {
		t.Error("FuncAt(junk) found something")
	}
	entries := img.FuncEntries()
	if len(entries) < 2 { // main + plt stub (+ boundary markers)
		t.Errorf("function entries = %d", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i] <= entries[i-1] {
			t.Error("function entries not sorted and distinct")
		}
	}
	for _, name := range []string{"main", "memcpy@plt"} {
		if _, ok := slices.BinarySearch(entries, symAddr(t, img, name)); !ok {
			t.Errorf("%s is not a function entry", name)
		}
	}
}

func TestDiversityOrderChangesAddresses(t *testing.T) {
	build := func(order []int, pad []int) *Image {
		u := NewUnit(isa.ArchX86S)
		for _, name := range []string{"f1", "f2", "f3"} {
			a := x86s.NewAsm()
			a.MovRI(x86s.EAX, 1)
			a.Ret()
			u.AddFuncX86(name, a)
		}
		img, err := Link(u, DefaultProgramLayout(isa.ArchX86S), Options{Order: order, Pad: pad})
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	a := build(nil, nil)
	b := build([]int{2, 0, 1}, []int{16, 0, 32})
	if symAddr(t, a, "f1") == symAddr(t, b, "f1") && symAddr(t, a, "f3") == symAddr(t, b, "f3") {
		t.Error("order/pad options did not move functions")
	}
}

// symAddr returns the address of a symbol the test needs, failing the
// test if the image does not define it.
func symAddr(t *testing.T, img *Image, name string) uint32 {
	t.Helper()
	addr, ok := img.Lookup(name)
	if !ok {
		t.Fatalf("undefined symbol %q", name)
	}
	return addr
}
