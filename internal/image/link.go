package image

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/mem"
)

// Layout gives the base address of each section group when linking.
type Layout struct {
	// TextBase is where .plt (then .text) starts.
	TextBase uint32
	// RODataBase is where .rodata starts.
	RODataBase uint32
	// GOTBase is where .got starts (programs with imports only).
	GOTBase uint32
	// DataBase is where .data starts.
	DataBase uint32
	// BSSBase is where .bss starts.
	BSSBase uint32
}

// Default program layouts. The bases mimic a 32-bit non-PIE Linux binary:
// x86 programs at 0x08048000, ARM programs at 0x00010000 (the paper's
// ARM listings show .text addresses like 0x000112b1 and .bss addresses
// like 0x000b9dc4, which these bases reproduce).
var (
	x86ProgramLayout = Layout{
		TextBase:   0x08048000,
		RODataBase: 0x08090000,
		GOTBase:    0x080A0000,
		DataBase:   0x080A4000,
		BSSBase:    0x080B0000,
	}
	armProgramLayout = Layout{
		TextBase:   0x00010000,
		RODataBase: 0x00090000,
		GOTBase:    0x000A0000,
		DataBase:   0x000A8000,
		BSSBase:    0x000B9000,
	}
)

// DefaultProgramLayout returns the fixed (non-PIE) link layout for a
// program on the given architecture.
func DefaultProgramLayout(arch isa.Arch) Layout {
	if arch == isa.ArchARMS {
		return armProgramLayout
	}
	return x86ProgramLayout
}

// DefaultLibcBase returns the unrandomized libc load base, mimicking the
// 32-bit Linux mmap region of each architecture.
func DefaultLibcBase(arch isa.Arch) uint32 {
	if arch == isa.ArchARMS {
		return 0x76F00000
	}
	return 0xB7500000
}

// LibraryLayout derives a library layout from a load base.
func LibraryLayout(base uint32) Layout {
	return Layout{
		TextBase:   base,
		RODataBase: base + 0x00040000,
		DataBase:   base + 0x00060000,
		BSSBase:    base + 0x00070000,
	}
}

// Slide returns the layout with every base moved by delta (modulo 2³²).
// A zero GOTBase means the image has no GOT and stays zero.
func (l Layout) Slide(delta uint32) Layout {
	l.TextBase += delta
	l.RODataBase += delta
	if l.GOTBase != 0 {
		l.GOTBase += delta
	}
	l.DataBase += delta
	l.BSSBase += delta
	return l
}

// Options tune linking; the zero value is the standard deterministic link.
// Diversity transforms (the §IV mitigation experiments) permute and pad
// function placement so that gadget addresses differ between builds.
type Options struct {
	// Order permutes Unit.Funcs; nil keeps the declared order. It must be a
	// permutation of [0, len(Funcs)).
	Order []int
	// Pad gives extra padding bytes inserted before each function (indexed
	// after permutation); nil means no padding.
	Pad []int
}

// movWTLen is the length of an arms movw/movt slide site.
const movWTLen = 8

const (
	x86PLTStubSize = 8
	armPLTStubSize = 16
	x86FuncAlign   = 16
	armFuncAlign   = 4
)

func align(v, a uint32) uint32 { return (v + a - 1) &^ (a - 1) }

// fillByte returns the inter-function fill: an undecodable byte so that
// stray execution and the gadget scanner stop at function boundaries
// (0xCC int3 on x86s, 0x00 illegal opcode on arms).
func fillByte(arch isa.Arch) byte {
	if arch == isa.ArchX86S {
		return 0xCC
	}
	return 0
}

// Link resolves a unit at the given layout. Programs with imports need
// Layout.GOTBase set; libraries must have no imports.
func Link(u *Unit, layout Layout, opts Options) (*Image, error) {
	if u.Err() != nil {
		return nil, u.Err()
	}
	if len(u.Imports) > 0 && layout.GOTBase == 0 {
		return nil, fmt.Errorf("link: unit has imports but layout has no GOT base")
	}

	nsym := 2*len(u.Imports) + len(u.Funcs) + len(u.ROData) + len(u.RWData) + len(u.BSS) + 3
	img := &Image{
		Arch:    u.Arch,
		Symbols: make(map[string]Symbol, nsym),
		PLT:     make(map[string]uint32, len(u.Imports)),
		GOT:     make(map[string]uint32, len(u.Imports)),
		Layout:  layout,
	}
	def := func(s Symbol) error {
		if _, dup := img.Symbols[s.Name]; dup {
			return fmt.Errorf("link: duplicate symbol %q", s.Name)
		}
		img.Symbols[s.Name] = s
		return nil
	}

	// GOT and PLT slots, in sorted import order for determinism.
	imports := append([]string(nil), u.Imports...)
	sort.Strings(imports)
	stubSize := uint32(x86PLTStubSize)
	if u.Arch == isa.ArchARMS {
		stubSize = armPLTStubSize
	}
	for i, name := range imports {
		got := layout.GOTBase + uint32(4*i)
		plt := layout.TextBase + uint32(i)*stubSize
		img.GOT[name] = got
		img.PLT[name] = plt
		if err := def(Symbol{Name: name + "@got", Addr: got, Size: 4, Section: ".got"}); err != nil {
			return nil, err
		}
		if err := def(Symbol{Name: name + "@plt", Addr: plt, Size: stubSize, Section: ".plt"}); err != nil {
			return nil, err
		}
	}
	pltSize := uint32(len(imports)) * stubSize

	// Function placement.
	funcs := u.Funcs
	if opts.Order != nil {
		if len(opts.Order) != len(funcs) {
			return nil, fmt.Errorf("link: order has %d entries for %d funcs", len(opts.Order), len(funcs))
		}
		seen := make(map[int]bool, len(opts.Order))
		reordered := make([]*Function, len(funcs))
		for i, j := range opts.Order {
			if j < 0 || j >= len(funcs) || seen[j] {
				return nil, fmt.Errorf("link: order is not a permutation")
			}
			seen[j] = true
			reordered[i] = funcs[j]
		}
		funcs = reordered
	}

	falign := uint32(x86FuncAlign)
	if u.Arch == isa.ArchARMS {
		falign = armFuncAlign
	}
	textStart := align(layout.TextBase+pltSize, falign)
	cursor := textStart
	addrs := make([]uint32, len(funcs))
	for i, fn := range funcs {
		if opts.Pad != nil && i < len(opts.Pad) {
			cursor += uint32(opts.Pad[i])
		}
		cursor = align(cursor, falign)
		addrs[i] = cursor
		if err := def(Symbol{Name: fn.Name, Addr: cursor, Size: uint32(len(fn.Bytes)), Section: ".text"}); err != nil {
			return nil, err
		}
		cursor += uint32(len(fn.Bytes))
	}
	textEnd := cursor

	// Data placement.
	place := func(items []Data, base uint32, section string, alignTo uint32) (uint32, error) {
		cur := base
		for _, d := range items {
			cur = align(cur, alignTo)
			if err := def(Symbol{Name: d.Name, Addr: cur, Size: d.Size, Section: section}); err != nil {
				return 0, err
			}
			cur += d.Size
		}
		return cur, nil
	}
	roEnd, err := place(u.ROData, layout.RODataBase, ".rodata", 4)
	if err != nil {
		return nil, err
	}
	dataEnd, err := place(u.RWData, layout.DataBase, ".data", 4)
	if err != nil {
		return nil, err
	}
	bssEnd, err := place(u.BSS, layout.BSSBase, ".bss", 4)
	if err != nil {
		return nil, err
	}

	// Section boundary symbols used by exploits and tests.
	for _, s := range []Symbol{
		{Name: "__text_start", Addr: textStart, Section: ".text"},
		{Name: "__text_end", Addr: textEnd, Section: ".text"},
		{Name: "__bss_start", Addr: layout.BSSBase, Section: ".bss"},
	} {
		if err := def(s); err != nil {
			return nil, err
		}
	}

	// Emit sections.
	fill := fillByte(u.Arch)
	textData := make([]byte, textEnd-layout.TextBase)
	if len(textData) > 0 {
		textData[0] = fill
		for i := 1; i < len(textData); i *= 2 {
			copy(textData[i:], textData[:i])
		}
	}
	// PLT stubs; each one's GOT address is an absolute site.
	for i, name := range imports {
		off := uint32(i) * stubSize
		img.pieces = append(img.pieces, mem.Piece{Off: off, Len: stubSize, Key: pltKey[u.Arch]})
		copy(textData[off:], buildPLTStub(u.Arch, img.GOT[name]))
		if u.Arch == isa.ArchX86S {
			img.sites = append(img.sites, mem.Site{Off: off + 2, Len: 4})
		} else {
			img.sites = append(img.sites, mem.Site{Off: off, Len: movWTLen})
		}
	}
	// Functions with relocations applied, in place in the section.
	for i, fn := range funcs {
		off := addrs[i] - layout.TextBase
		code := textData[off : off+uint32(len(fn.Bytes))]
		copy(code, fn.Bytes)
		if err := applyRelocs(img, fn, addrs[i], off, code); err != nil {
			return nil, err
		}
		if fn.key != 0 && len(fn.Bytes) > 0 {
			img.pieces = append(img.pieces, mem.Piece{Off: off, Len: uint32(len(fn.Bytes)), Key: fn.key})
		}
	}
	bySite := func(a, b mem.Site) int { return cmp.Compare(a.Off, b.Off) }
	slices.SortFunc(img.sites, bySite)
	img.varying = append(img.varying, img.sites...)
	slices.SortFunc(img.varying, bySite)
	img.funcs = funcEntries(img.Symbols)

	fillData := func(items []Data, base, end uint32, alignTo uint32) []byte {
		out := make([]byte, end-base)
		cur := base
		for _, d := range items {
			cur = align(cur, alignTo)
			copy(out[cur-base:], d.Bytes)
			cur += d.Size
		}
		return out
	}

	img.Sections = append(img.Sections,
		Section{Name: ".text", Addr: layout.TextBase, Data: textData, Perm: mem.PermRX})
	if len(u.ROData) > 0 {
		img.Sections = append(img.Sections, Section{
			Name: ".rodata", Addr: layout.RODataBase,
			Data: fillData(u.ROData, layout.RODataBase, roEnd, 4), Perm: mem.PermRead,
		})
	}
	if len(imports) > 0 {
		img.Sections = append(img.Sections, Section{
			Name: ".got", Addr: layout.GOTBase,
			Data: make([]byte, uint32(4*len(imports))), Perm: mem.PermRW,
		})
	}
	if len(u.RWData) > 0 {
		img.Sections = append(img.Sections, Section{
			Name: ".data", Addr: layout.DataBase,
			Data: fillData(u.RWData, layout.DataBase, dataEnd, 4), Perm: mem.PermRW,
		})
	}
	if len(u.BSS) > 0 {
		img.Sections = append(img.Sections, Section{
			Name: ".bss", Addr: layout.BSSBase,
			Data: make([]byte, bssEnd-layout.BSSBase), Perm: mem.PermRW,
		})
	}
	return img, nil
}

// buildPLTStub emits the jump-through-GOT stub for one import.
func buildPLTStub(arch isa.Arch, got uint32) []byte {
	if arch == isa.ArchX86S {
		// jmp dword [got]; int3 padding.
		return []byte{
			0xFF, 0x25, byte(got), byte(got >> 8), byte(got >> 16), byte(got >> 24),
			0xCC, 0xCC,
		}
	}
	// movw r12,#lo ; movt r12,#hi ; ldr r12,[r12] ; bx r12
	words := []uint32{
		arms.Instr{Op: arms.OpMovW, Rd: arms.R12, Imm: int32(got & 0xFFFF)}.Word(),
		arms.Instr{Op: arms.OpMovT, Rd: arms.R12, Imm: int32(got >> 16)}.Word(),
		arms.Instr{Op: arms.OpLdr, Rd: arms.R12, Rn: arms.R12}.Word(),
		arms.Instr{Op: arms.OpBX, Rd: arms.R12}.Word(),
	}
	out := make([]byte, 16)
	for i, w := range words {
		out[i*4] = byte(w)
		out[i*4+1] = byte(w >> 8)
		out[i*4+2] = byte(w >> 16)
		out[i*4+3] = byte(w >> 24)
	}
	return out
}

// applyRelocs patches one function's code in place and records its
// absolute sites (the function starts off bytes into .text) for Slide
// and its relative ones in varying.
func applyRelocs(img *Image, fn *Function, funcAddr, off uint32, code []byte) error {
	for _, r := range fn.Relocs {
		sym, ok := img.Symbols[r.Symbol]
		if !ok {
			return fmt.Errorf("link %s: undefined symbol %q", fn.Name, r.Symbol)
		}
		target := sym.Addr + uint32(r.Addend)
		if r.Off < 0 || r.Off+4 > len(code) {
			return fmt.Errorf("link %s: reloc offset %d out of bounds", fn.Name, r.Off)
		}
		switch r.Kind {
		case RelocAbs32, RelocWord32:
			put32(code[r.Off:], target)
			img.sites = append(img.sites, mem.Site{Off: off + uint32(r.Off), Len: 4})
		case RelocRel32:
			site := funcAddr + uint32(r.Off)
			put32(code[r.Off:], target-(site+4))
			img.varying = append(img.varying, mem.Site{Off: off + uint32(r.Off), Len: 4})
		case RelocArmMovWT:
			if err := arms.PatchMovWT(code, r.Off, target); err != nil {
				return fmt.Errorf("link %s: %w", fn.Name, err)
			}
			img.sites = append(img.sites, mem.Site{Off: off + uint32(r.Off), Len: movWTLen})
		case RelocArmBranch:
			site := funcAddr + uint32(r.Off)
			if err := arms.PatchBranch(code, r.Off, site, target); err != nil {
				return fmt.Errorf("link %s: %w", fn.Name, err)
			}
			img.varying = append(img.varying, mem.Site{Off: off + uint32(r.Off), Len: 4})
		default:
			return fmt.Errorf("link %s: unknown reloc kind %d", fn.Name, r.Kind)
		}
	}
	return nil
}

func put32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
