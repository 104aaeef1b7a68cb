package gadget

import (
	"strings"
	"testing"

	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/mem"
)

// imageFromBytes wraps raw code bytes as a linked image for the scanner.
func imageFromBytes(arch isa.Arch, code []byte) *image.Image {
	return &image.Image{
		Arch: arch,
		Sections: []image.Section{
			{Name: ".text", Addr: 0x1000, Data: code, Perm: mem.PermRX},
		},
	}
}

func TestX86GadgetsFromUnalignedBytes(t *testing.T) {
	// mov eax, 0x5bC35858 — the immediate contains "pop ebx; ret" at an
	// unaligned offset, a classic unintended gadget.
	code := []byte{0xB8, 0x58, 0x58, 0x5B, 0xC3, 0xC3}
	f := NewFinder(imageFromBytes(isa.ArchX86S, code))
	g, ok := f.FindPopRet(3)
	if !ok {
		t.Fatalf("no pop;pop;pop;ret found inside the immediate; all: %v", f.All())
	}
	if g.Addr != 0x1001 {
		t.Errorf("gadget at %#x, want inside the immediate", g.Addr)
	}
}

func TestX86GadgetsExcludeControlFlowBodies(t *testing.T) {
	// call rel32 followed by ret must not be reported as one gadget
	// (control leaves before the ret).
	code := []byte{0xE8, 0x00, 0x00, 0x00, 0x00, 0xC3}
	f := NewFinder(imageFromBytes(isa.ArchX86S, code))
	for _, g := range f.All() {
		for _, in := range g.Instrs[:len(g.Instrs)-1] {
			if strings.HasPrefix(in, "call") || strings.HasPrefix(in, "jmp") ||
				strings.HasPrefix(in, "int") {
				t.Errorf("gadget %v contains a mid-sequence transfer", g)
			}
		}
	}
	// The bare ret itself is still found.
	if _, ok := f.FindPopRet(0); !ok {
		t.Error("bare ret not found")
	}
}

func TestX86MixedBodyGadgetHasNoPopSummary(t *testing.T) {
	// mov eax, ebx; pop ecx; ret — a usable gadget but not a pure
	// pop-run, so Pops must be empty and FindPopRet(1) must not match it
	// over a pure pop;ret elsewhere.
	code := []byte{0x89, 0xD8, 0x59, 0xC3}
	f := NewFinder(imageFromBytes(isa.ArchX86S, code))
	var found bool
	for _, g := range f.All() {
		if len(g.Instrs) == 3 {
			found = true
			if g.Pops != nil {
				t.Errorf("mixed gadget has pop summary %v", g.Pops)
			}
		}
	}
	if !found {
		t.Error("3-instruction gadget not reported")
	}
}

func TestARMScannerIgnoresNonCanonicalWords(t *testing.T) {
	// All 0xFF words decode as nothing on arms; the scanner must find no
	// gadgets and not panic.
	code := make([]byte, 64)
	for i := range code {
		code[i] = 0xFF
	}
	f := NewFinder(imageFromBytes(isa.ArchARMS, code))
	if n := len(f.All()); n != 0 {
		t.Errorf("found %d gadgets in garbage", n)
	}
}

func TestFindPopPCRejectsWrongList(t *testing.T) {
	img := imageFromBytes(isa.ArchARMS, nil)
	f := NewFinder(img)
	if _, ok := f.FindPopPC(0, 1); ok {
		t.Error("found a gadget in an empty image")
	}
	if _, ok := f.FindBlxReg(3); ok {
		t.Error("found blx in an empty image")
	}
}

func TestMemStrSkipsNothing(t *testing.T) {
	img := &image.Image{
		Arch: isa.ArchX86S,
		Sections: []image.Section{
			{Name: ".text", Addr: 0x1000, Data: []byte{0x90, 'Z', 0x90}, Perm: mem.PermRX},
			{Name: ".rodata", Addr: 0x2000, Data: []byte("aZb"), Perm: mem.PermRead},
		},
	}
	f := NewFinder(img)
	addrs := f.MemStr('Z')
	if len(addrs) != 2 || addrs[0] != 0x1001 || addrs[1] != 0x2001 {
		t.Errorf("MemStr = %#v", addrs)
	}
	if _, ok := f.MemStrFirst(0xEE); ok {
		t.Error("found a byte that is not there")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindRet: "ret", KindPopPC: "pop-pc", KindBlxReg: "blx-reg", KindBxReg: "bx-reg",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}
