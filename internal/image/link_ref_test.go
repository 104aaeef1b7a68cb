package image_test

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/mem"
)

// refImage is an Image as refLink builds it: every symbol, PLT stub and
// GOT slot in maps of its own.
type refImage struct {
	Arch     isa.Arch
	Sections []image.Section
	Symbols  map[string]image.Symbol
	PLT      map[string]uint32
	GOT      map[string]uint32
	Layout   image.Layout
	sites    []mem.Site
	varying  []mem.Site
	pieces   []mem.Piece
	funcs    []uint32
}

// refLink is Link as it stood before links shared their unit's
// options-independent parts: it resolves a unit at the given layout. Programs with imports need
// Layout.GOTBase set; libraries must have no imports.
func refLink(u *image.Unit, layout image.Layout, opts image.Options) (*refImage, error) {
	if u.Err() != nil {
		return nil, u.Err()
	}
	if len(u.Imports) > 0 && layout.GOTBase == 0 {
		return nil, fmt.Errorf("link: unit has imports but layout has no GOT base")
	}

	nsym := 2*len(u.Imports) + len(u.Funcs) + len(u.ROData) + len(u.RWData) + len(u.BSS) + 3
	img := &refImage{
		Arch:    u.Arch,
		Symbols: make(map[string]image.Symbol, nsym),
		PLT:     make(map[string]uint32, len(u.Imports)),
		GOT:     make(map[string]uint32, len(u.Imports)),
		Layout:  layout,
	}
	def := func(s image.Symbol) error {
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
		if err := def(image.Symbol{Name: name + "@got", Addr: got, Size: 4, Section: ".got"}); err != nil {
			return nil, err
		}
		if err := def(image.Symbol{Name: name + "@plt", Addr: plt, Size: stubSize, Section: ".plt"}); err != nil {
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
		reordered := make([]*image.Function, len(funcs))
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
		if err := def(image.Symbol{Name: fn.Name, Addr: cursor, Size: uint32(len(fn.Bytes)), Section: ".text"}); err != nil {
			return nil, err
		}
		cursor += uint32(len(fn.Bytes))
	}
	textEnd := cursor

	// Data placement.
	place := func(items []image.Data, base uint32, section string, alignTo uint32) (uint32, error) {
		cur := base
		for _, d := range items {
			cur = align(cur, alignTo)
			if err := def(image.Symbol{Name: d.Name, Addr: cur, Size: d.Size, Section: section}); err != nil {
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
	for _, s := range []image.Symbol{
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
		img.pieces = append(img.pieces, mem.Piece{Off: off, Len: stubSize, Key: image.PLTKey(u.Arch)})
		copy(textData[off:], refPLTStub(u.Arch, img.GOT[name]))
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
		if err := refApplyRelocs(img, fn, addrs[i], off, code); err != nil {
			return nil, err
		}
		if image.FuncKey(fn) != 0 && len(fn.Bytes) > 0 {
			img.pieces = append(img.pieces, mem.Piece{Off: off, Len: uint32(len(fn.Bytes)), Key: image.FuncKey(fn)})
		}
	}
	bySite := func(a, b mem.Site) int { return cmp.Compare(a.Off, b.Off) }
	slices.SortFunc(img.sites, bySite)
	img.varying = append(img.varying, img.sites...)
	slices.SortFunc(img.varying, bySite)
	img.funcs = refFuncEntries(img.Symbols)

	fillData := func(items []image.Data, base, end uint32, alignTo uint32) []byte {
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
		image.Section{Name: ".text", Addr: layout.TextBase, Data: textData, Perm: mem.PermRX})
	if len(u.ROData) > 0 {
		img.Sections = append(img.Sections, image.Section{
			Name: ".rodata", Addr: layout.RODataBase,
			Data: fillData(u.ROData, layout.RODataBase, roEnd, 4), Perm: mem.PermRead,
		})
	}
	if len(imports) > 0 {
		img.Sections = append(img.Sections, image.Section{
			Name: ".got", Addr: layout.GOTBase,
			Data: make([]byte, uint32(4*len(imports))), Perm: mem.PermRW,
		})
	}
	if len(u.RWData) > 0 {
		img.Sections = append(img.Sections, image.Section{
			Name: ".data", Addr: layout.DataBase,
			Data: fillData(u.RWData, layout.DataBase, dataEnd, 4), Perm: mem.PermRW,
		})
	}
	if len(u.BSS) > 0 {
		img.Sections = append(img.Sections, image.Section{
			Name: ".bss", Addr: layout.BSSBase,
			Data: make([]byte, bssEnd-layout.BSSBase), Perm: mem.PermRW,
		})
	}
	return img, nil
}

// refPLTStub emits the jump-through-GOT stub for one import.
func refPLTStub(arch isa.Arch, got uint32) []byte {
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

// refApplyRelocs patches one function's code in place and records its
// absolute sites (the function starts off bytes into .text) for Slide
// and its relative ones in varying.
func refApplyRelocs(img *refImage, fn *image.Function, funcAddr, off uint32, code []byte) error {
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
		case image.RelocAbs32, image.RelocWord32:
			put32(code[r.Off:], target)
			img.sites = append(img.sites, mem.Site{Off: off + uint32(r.Off), Len: 4})
		case image.RelocRel32:
			site := funcAddr + uint32(r.Off)
			put32(code[r.Off:], target-(site+4))
			img.varying = append(img.varying, mem.Site{Off: off + uint32(r.Off), Len: 4})
		case image.RelocArmMovWT:
			if err := arms.PatchMovWT(code, r.Off, target); err != nil {
				return fmt.Errorf("link %s: %w", fn.Name, err)
			}
			img.sites = append(img.sites, mem.Site{Off: off + uint32(r.Off), Len: movWTLen})
		case image.RelocArmBranch:
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

// refFuncEntries collects FuncEntries from a symbol table.
func refFuncEntries(syms map[string]image.Symbol) []uint32 {
	var out []uint32
	for _, s := range syms {
		if s.Section == ".text" || s.Section == ".plt" {
			out = append(out, s.Addr)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// The link constants and helpers refLink used, as they stood.
const (
	movWTLen       = 8
	x86PLTStubSize = 8
	armPLTStubSize = 16
	x86FuncAlign   = 16
	armFuncAlign   = 4
)

func align(v, a uint32) uint32 { return (v + a - 1) &^ (a - 1) }

func fillByte(arch isa.Arch) byte {
	if arch == isa.ArchX86S {
		return 0xCC
	}
	return 0
}

func put32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// FuncAt is Image.FuncAt as it stood: a scan of the symbol map.
func (img *refImage) FuncAt(addr uint32) (image.Symbol, bool) {
	var best image.Symbol
	found := false
	for _, s := range img.Symbols {
		if s.Section != ".text" && s.Section != ".plt" {
			continue
		}
		if addr >= s.Addr && addr < s.Addr+s.Size {
			if !found || s.Addr > best.Addr {
				best, found = s, true
			}
		}
	}
	return best, found
}
