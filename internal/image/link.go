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

// symKind says what a symbol's address is measured from.
type symKind uint8

const (
	symFunc      symKind = iota // the link's placement of function fn
	symPLT                      // Layout.TextBase
	symGOT                      // Layout.GOTBase
	symRO                       // Layout.RODataBase rounded up to 4
	symData                     // Layout.DataBase rounded up to 4
	symBSS                      // Layout.BSSBase rounded up to 4
	symTextStart                // the link's first function slot
	symTextEnd                  // the end of the link's last function
	symBSSStart                 // Layout.BSSBase
)

// kindSection is the section a symbol of each kind belongs to.
var kindSection = [...]string{
	symFunc: ".text", symPLT: ".plt", symGOT: ".got", symRO: ".rodata", symData: ".data",
	symBSS: ".bss", symTextStart: ".text", symTextEnd: ".text", symBSSStart: ".bss",
}

// symRef is one symbol of a unit, its address left as an offset from
// what its kind names.
type symRef struct {
	kind symKind
	fn   int32 // the function's index in Unit.Funcs, for symFunc
	off  uint32
	size uint32
}

// unitLink is what every link of a unit shares, whatever its options and
// layout: the symbol table (names, sizes, sections, and each address as
// an offset from a base or a function's slot), the sorted imports, every
// relocation resolved against that table, and the bytes of the sections
// function order does not move. Data placement rounds each item up to 4
// from its section's base, so an item's offset from the base rounded up
// to 4 is the same at every layout; the .rodata, .data and .bss bytes
// are kept for a base 3 short of a multiple of 4 and sliced to the
// layout's (see dataSection).
type unitLink struct {
	err      error
	imports  []string // sorted; import i has PLT stub i and GOT slot i
	stubSize uint32
	names    []string // every symbol, in definition order
	refs     []symRef // names[i]'s address
	index    map[string]int32
	// relocs[i][k] is the refs index of Funcs[i].Relocs[k]'s symbol.
	relocs                 [][]int32
	rodata, data, bss, got []byte // nil when the section is absent
	// nSites, nVarying and nPieces are how many slide sites, varying
	// sites and pieces every link records.
	nSites, nVarying, nPieces int
}

// shared returns the unit's unitLink, built on its first link.
func (u *Unit) shared() *unitLink {
	u.sharedOnce.Do(func() { u.sharedLink = newUnitLink(u) })
	return u.sharedLink
}

// newUnitLink builds u's unitLink, recording the first duplicate or
// undefined symbol or malformed relocation as its error.
func newUnitLink(u *Unit) *unitLink {
	n := 2*len(u.Imports) + len(u.Funcs) + len(u.ROData) + len(u.RWData) + len(u.BSS) + 3
	ul := &unitLink{
		imports:  append([]string(nil), u.Imports...),
		stubSize: x86PLTStubSize,
		names:    make([]string, 0, n),
		refs:     make([]symRef, 0, n),
		index:    make(map[string]int32, n),
	}
	sort.Strings(ul.imports)
	if u.Arch == isa.ArchARMS {
		ul.stubSize = armPLTStubSize
	}
	def := func(name string, r symRef) {
		if _, dup := ul.index[name]; dup {
			ul.setErr(fmt.Errorf("link: duplicate symbol %q", name))
			return
		}
		ul.index[name] = int32(len(ul.names))
		ul.names = append(ul.names, name)
		ul.refs = append(ul.refs, r)
	}
	for i, name := range ul.imports {
		def(name+"@got", symRef{kind: symGOT, off: uint32(4 * i), size: 4})
		def(name+"@plt", symRef{kind: symPLT, off: uint32(i) * ul.stubSize, size: ul.stubSize})
	}
	if len(ul.imports) > 0 {
		ul.got = make([]byte, 4*len(ul.imports))
	}
	for i, fn := range u.Funcs {
		def(fn.Name, symRef{kind: symFunc, fn: int32(i), size: uint32(len(fn.Bytes))})
	}
	place := func(items []Data, kind symKind) []byte {
		if len(items) == 0 {
			return nil
		}
		off := uint32(0)
		for _, d := range items {
			off = align(off, 4)
			def(d.Name, symRef{kind: kind, off: off, size: d.Size})
			off += d.Size
		}
		out := make([]byte, 3+off)
		off = 0
		for _, d := range items {
			off = align(off, 4)
			copy(out[3+off:], d.Bytes)
			off += d.Size
		}
		return out
	}
	ul.rodata = place(u.ROData, symRO)
	ul.data = place(u.RWData, symData)
	ul.bss = place(u.BSS, symBSS)
	def("__text_start", symRef{kind: symTextStart})
	def("__text_end", symRef{kind: symTextEnd})
	def("__bss_start", symRef{kind: symBSSStart})

	ul.relocs = make([][]int32, len(u.Funcs))
	ul.nSites, ul.nPieces = len(ul.imports), len(ul.imports)
	for i, fn := range u.Funcs {
		if fn.key != 0 && len(fn.Bytes) > 0 {
			ul.nPieces++
		}
		ul.relocs[i] = make([]int32, len(fn.Relocs))
		for k, r := range fn.Relocs {
			if r.Kind == RelocRel32 || r.Kind == RelocArmBranch {
				ul.nVarying++
			} else {
				ul.nSites++
			}
			j, ok := ul.index[r.Symbol]
			switch {
			case !ok:
				ul.setErr(fmt.Errorf("link %s: undefined symbol %q", fn.Name, r.Symbol))
			case r.Off < 0 || r.Off+4 > len(fn.Bytes):
				ul.setErr(fmt.Errorf("link %s: reloc offset %d out of bounds", fn.Name, r.Off))
			case r.Kind < RelocAbs32 || r.Kind > RelocWord32:
				ul.setErr(fmt.Errorf("link %s: unknown reloc kind %d", fn.Name, r.Kind))
			}
			ul.relocs[i][k] = j
		}
	}
	ul.nVarying += ul.nSites
	return ul
}

func (ul *unitLink) setErr(err error) {
	if ul.err == nil {
		ul.err = err
	}
}

// dataSection returns the bytes of a data section placed at base, from
// the unit's copy for a base 3 short of a multiple of 4 (see unitLink).
func dataSection(b []byte, base uint32) []byte { return b[3-(-base&3):] }

// linkTables is what a link adds to its unit's unitLink: where its
// options placed each function, at the layout it was linked at, and
// .text's sites, varying sites and pieces. Slides of the link share it.
type linkTables struct {
	unit   *unitLink
	layout Layout
	// funcAddr[i] is Unit.Funcs[i]'s address.
	funcAddr           []uint32
	textStart, textEnd uint32
	// sites are the .text ranges of every absolute address the link
	// wrote, sorted by offset: a 32-bit little-endian word (RelocAbs32,
	// RelocWord32, an x86s PLT stub's GOT word) or, 8 bytes long, the
	// 16-bit halves of an arms movw/movt pair (RelocArmMovWT, an arms PLT
	// stub). They are the only bytes a slide changes.
	sites []mem.Site
	// varying are the sites plus the relative branches between
	// functions (RelocRel32, RelocArmBranch): every .text byte whose value
	// depends on placement. pieces are .text's PLT stubs and functions.
	// MapInto declares both to mem (see mem.Memory.Patch).
	varying []mem.Site
	pieces  []mem.Piece
	// funcs are the sorted, distinct addresses of the .text and .plt
	// symbols (see FuncEntries).
	funcs []uint32
}

// Link resolves a unit at the given layout. Programs with imports need
// Layout.GOTBase set; libraries must have no imports. The unit's symbol
// table, imports, resolved relocations and data sections are built on
// its first link and shared by all of them (see unitLink), so a link
// places and relocates only .text.
func Link(u *Unit, layout Layout, opts Options) (*Image, error) {
	if u.Err() != nil {
		return nil, u.Err()
	}
	if len(u.Imports) > 0 && layout.GOTBase == 0 {
		return nil, fmt.Errorf("link: unit has imports but layout has no GOT base")
	}
	ul := u.shared()
	if ul.err != nil {
		return nil, ul.err
	}

	// Function placement.
	n := len(u.Funcs)
	if opts.Order != nil {
		if len(opts.Order) != n {
			return nil, fmt.Errorf("link: order has %d entries for %d funcs", len(opts.Order), n)
		}
		seen := make([]bool, n)
		for _, j := range opts.Order {
			if j < 0 || j >= n || seen[j] {
				return nil, fmt.Errorf("link: order is not a permutation")
			}
			seen[j] = true
		}
	}
	slot := func(i int) int { // the function placed i-th
		if opts.Order != nil {
			return opts.Order[i]
		}
		return i
	}
	t := &linkTables{unit: ul, layout: layout, funcAddr: make([]uint32, n),
		sites: make([]mem.Site, 0, ul.nSites), varying: make([]mem.Site, 0, ul.nVarying),
		pieces: make([]mem.Piece, 0, ul.nPieces)}
	falign := uint32(x86FuncAlign)
	if u.Arch == isa.ArchARMS {
		falign = armFuncAlign
	}
	t.textStart = align(layout.TextBase+uint32(len(ul.imports))*ul.stubSize, falign)
	cursor := t.textStart
	for i := 0; i < n; i++ {
		if opts.Pad != nil && i < len(opts.Pad) {
			cursor += uint32(opts.Pad[i])
		}
		cursor = align(cursor, falign)
		j := slot(i)
		t.funcAddr[j] = cursor
		cursor += uint32(len(u.Funcs[j].Bytes))
	}
	t.textEnd = cursor
	img := &Image{Arch: u.Arch, Layout: layout, t: t}

	// Emit .text.
	fill := fillByte(u.Arch)
	textData := make([]byte, t.textEnd-layout.TextBase)
	if len(textData) > 0 {
		textData[0] = fill
		for i := 1; i < len(textData); i *= 2 {
			copy(textData[i:], textData[:i])
		}
	}
	// PLT stubs; each one's GOT address is an absolute site.
	for i := range ul.imports {
		off := uint32(i) * ul.stubSize
		t.pieces = append(t.pieces, mem.Piece{Off: off, Len: ul.stubSize, Key: pltKey[u.Arch]})
		putPLTStub(u.Arch, textData[off:], layout.GOTBase+uint32(4*i))
		if u.Arch == isa.ArchX86S {
			t.sites = append(t.sites, mem.Site{Off: off + 2, Len: 4})
		} else {
			t.sites = append(t.sites, mem.Site{Off: off, Len: movWTLen})
		}
	}
	// Functions with relocations applied, in place in the section.
	for i := 0; i < n; i++ {
		j := slot(i)
		fn := u.Funcs[j]
		off := t.funcAddr[j] - layout.TextBase
		code := textData[off : off+uint32(len(fn.Bytes))]
		copy(code, fn.Bytes)
		if err := img.applyRelocs(fn, ul.relocs[j], off, code); err != nil {
			return nil, err
		}
		if fn.key != 0 && len(fn.Bytes) > 0 {
			t.pieces = append(t.pieces, mem.Piece{Off: off, Len: uint32(len(fn.Bytes)), Key: fn.key})
		}
	}
	bySite := func(a, b mem.Site) int { return cmp.Compare(a.Off, b.Off) }
	slices.SortFunc(t.sites, bySite)
	t.varying = append(t.varying, t.sites...)
	slices.SortFunc(t.varying, bySite)
	// The entries in address order: PLT stubs, then the functions as
	// placed; only a layout that wraps the address space needs the sort.
	t.funcs = make([]uint32, 0, len(ul.imports)+n+2)
	for i := range ul.imports {
		t.funcs = append(t.funcs, layout.TextBase+uint32(i)*ul.stubSize)
	}
	t.funcs = append(t.funcs, t.textStart)
	for i := 0; i < n; i++ {
		t.funcs = append(t.funcs, t.funcAddr[slot(i)])
	}
	t.funcs = append(t.funcs, t.textEnd)
	if !slices.IsSorted(t.funcs) {
		slices.Sort(t.funcs)
	}
	t.funcs = slices.Compact(t.funcs)

	img.Sections = make([]Section, 1, 5)
	img.Sections[0] = Section{Name: ".text", Addr: layout.TextBase, Data: textData, Perm: mem.PermRX}
	if ul.rodata != nil {
		img.Sections = append(img.Sections, Section{Name: ".rodata", Addr: layout.RODataBase,
			Data: dataSection(ul.rodata, layout.RODataBase), Perm: mem.PermRead})
	}
	if ul.got != nil {
		img.Sections = append(img.Sections, Section{Name: ".got", Addr: layout.GOTBase, Data: ul.got, Perm: mem.PermRW})
	}
	if ul.data != nil {
		img.Sections = append(img.Sections, Section{Name: ".data", Addr: layout.DataBase,
			Data: dataSection(ul.data, layout.DataBase), Perm: mem.PermRW})
	}
	if ul.bss != nil {
		img.Sections = append(img.Sections, Section{Name: ".bss", Addr: layout.BSSBase,
			Data: dataSection(ul.bss, layout.BSSBase), Perm: mem.PermRW})
	}
	return img, nil
}

// putPLTStub writes the jump-through-GOT stub for one import at the start
// of b.
func putPLTStub(arch isa.Arch, b []byte, got uint32) {
	if arch == isa.ArchX86S {
		// jmp dword [got]; int3 padding.
		b[0], b[1] = 0xFF, 0x25
		put32(b[2:], got)
		b[6], b[7] = 0xCC, 0xCC
		return
	}
	// movw r12,#lo ; movt r12,#hi ; ldr r12,[r12] ; bx r12
	for i, w := range [...]uint32{
		arms.Instr{Op: arms.OpMovW, Rd: arms.R12, Imm: int32(got & 0xFFFF)}.Word(),
		arms.Instr{Op: arms.OpMovT, Rd: arms.R12, Imm: int32(got >> 16)}.Word(),
		arms.Instr{Op: arms.OpLdr, Rd: arms.R12, Rn: arms.R12}.Word(),
		arms.Instr{Op: arms.OpBX, Rd: arms.R12}.Word(),
	} {
		put32(b[4*i:], w)
	}
}

// applyRelocs patches one function's code in place, its relocations'
// symbols resolved to refs (see unitLink.relocs), and records its
// absolute sites (the function starts off bytes into .text) for Slide
// and its relative ones in varying.
func (img *Image) applyRelocs(fn *Function, refs []int32, off uint32, code []byte) error {
	t := img.t
	funcAddr := t.layout.TextBase + off
	for k, r := range fn.Relocs {
		target := img.addr(t.unit.refs[refs[k]]) + uint32(r.Addend)
		switch r.Kind {
		case RelocAbs32, RelocWord32:
			put32(code[r.Off:], target)
			t.sites = append(t.sites, mem.Site{Off: off + uint32(r.Off), Len: 4})
		case RelocRel32:
			site := funcAddr + uint32(r.Off)
			put32(code[r.Off:], target-(site+4))
			t.varying = append(t.varying, mem.Site{Off: off + uint32(r.Off), Len: 4})
		case RelocArmMovWT:
			if err := arms.PatchMovWT(code, r.Off, target); err != nil {
				return fmt.Errorf("link %s: %w", fn.Name, err)
			}
			t.sites = append(t.sites, mem.Site{Off: off + uint32(r.Off), Len: movWTLen})
		case RelocArmBranch:
			site := funcAddr + uint32(r.Off)
			if err := arms.PatchBranch(code, r.Off, site, target); err != nil {
				return fmt.Errorf("link %s: %w", fn.Name, err)
			}
			t.varying = append(t.varying, mem.Site{Off: off + uint32(r.Off), Len: 4})
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
