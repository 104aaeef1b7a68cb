// Package image builds and links the binary images the lab's simulated
// processes execute: the Connman-analog victim programs and the emulated
// libc. It plays the role of the compiler+static-linker pair (for the main
// program, linked non-PIE at a fixed base) and feeds the dynamic-linking
// step the kernel loader performs (libc relocation, GOT population).
//
// A Unit is relocatable compiled code: functions with outstanding symbol
// relocations plus data definitions. Link resolves a Unit against a Layout
// into an Image: absolute sections, a symbol table, and PLT/GOT maps.
package image

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
	"connlab/internal/mem"
)

// RelocKind unifies the per-architecture relocation kinds.
type RelocKind uint8

// Relocation kinds.
const (
	// RelocAbs32 patches a 32-bit absolute address (x86s immediates and
	// memory-operand displacements).
	RelocAbs32 RelocKind = iota + 1
	// RelocRel32 patches symbol - (site+4) (x86s call/jmp rel32).
	RelocRel32
	// RelocArmMovWT patches an arms movw/movt pair.
	RelocArmMovWT
	// RelocArmBranch patches an arms b/bl rel22 field.
	RelocArmBranch
	// RelocWord32 patches a literal 32-bit word (either architecture).
	RelocWord32
)

// Reloc is an unresolved symbol reference within a function.
type Reloc struct {
	Off    int
	Kind   RelocKind
	Symbol string
	Addend int32
}

// Function is one compiled function.
type Function struct {
	Name   string
	Bytes  []byte
	Relocs []Reloc
	// key names Bytes as a mem.Piece: every link places the same bytes
	// outside the relocated fields. 0 (a Function not built by a Unit)
	// names nothing.
	key uint64
}

// pieceKeys mints Function keys and the PLT stubs' keys.
var pieceKeys atomic.Uint64

// pltKey names the bytes of a PLT stub outside its GOT address, per
// ISA.
var pltKey = map[isa.Arch]uint64{isa.ArchX86S: pieceKeys.Add(1), isa.ArchARMS: pieceKeys.Add(1)}

// Data is a named data definition. A nil Bytes with Size > 0 is a BSS
// (zero-initialized) definition.
type Data struct {
	Name  string
	Bytes []byte
	Size  uint32
}

// Unit is a relocatable compilation unit. A unit must not change once it
// has been linked through Linked, which remembers its links.
type Unit struct {
	Arch    isa.Arch
	Funcs   []*Function
	ROData  []Data
	RWData  []Data
	BSS     []Data
	Imports []string // functions reached through the PLT
	err     error

	// links holds one base link per link-options content (see Linked).
	linkMu sync.Mutex
	links  map[string]*Image
}

// maxUnitLinks bounds a unit's link memo: the options a unit is linked
// with are the plain link plus one per diversity seed, and a sweep uses
// twenty seeds.
const maxUnitLinks = 64

// Linked returns the unit linked at layout with opts. The first link for
// an options content is a full Link, remembered by the unit; later calls
// with the same content slide that link to layout instead of relinking,
// which yields the same image (see Slide). A layout that is not a slide
// of the remembered one is linked in full. The image is shared and must
// not be written.
func (u *Unit) Linked(layout Layout, opts Options) (*Image, error) {
	key := optionsKey(opts)
	u.linkMu.Lock()
	base := u.links[key]
	u.linkMu.Unlock()
	if base != nil {
		d := layout.TextBase - base.Layout.TextBase
		if base.Layout.Slide(d) == layout {
			return base.Slide(d), nil
		}
		return Link(u, layout, opts)
	}
	img, err := Link(u, layout, opts)
	if err != nil {
		return nil, err
	}
	u.linkMu.Lock()
	if u.links == nil {
		u.links = make(map[string]*Image)
	}
	if len(u.links) < maxUnitLinks {
		u.links[key] = img
	}
	u.linkMu.Unlock()
	return img, nil
}

// optionsKey encodes the content of opts: options with equal keys link
// to equal images.
func optionsKey(opts Options) string {
	b := make([]byte, 0, 2+2*(len(opts.Order)+len(opts.Pad)))
	if opts.Order != nil {
		b = append(b, 'o')
		for _, v := range opts.Order {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	b = append(b, '|')
	for _, v := range opts.Pad {
		b = binary.AppendVarint(b, int64(v))
	}
	return string(b)
}

// NewUnit returns an empty unit for the given architecture.
func NewUnit(arch isa.Arch) *Unit { return &Unit{Arch: arch} }

// Err returns the first error recorded while building the unit.
func (u *Unit) Err() error { return u.err }

func (u *Unit) setErr(err error) {
	if u.err == nil && err != nil {
		u.err = err
	}
}

// AddFuncX86 assembles an x86s function into the unit.
func (u *Unit) AddFuncX86(name string, a *x86s.Asm) *Unit {
	if u.Arch != isa.ArchX86S {
		u.setErr(fmt.Errorf("unit %s: x86s function %q added to %s unit", u.Arch, name, u.Arch))
		return u
	}
	code, err := a.Assemble()
	if err != nil {
		u.setErr(fmt.Errorf("assemble %s: %w", name, err))
		return u
	}
	fn := &Function{Name: name, Bytes: code.Bytes, key: pieceKeys.Add(1)}
	for _, r := range code.Relocs {
		kind := RelocAbs32
		if r.Kind == x86s.RelocRel32 {
			kind = RelocRel32
		}
		fn.Relocs = append(fn.Relocs, Reloc{Off: r.Off, Kind: kind, Symbol: r.Symbol, Addend: r.Addend})
	}
	u.Funcs = append(u.Funcs, fn)
	return u
}

// AddFuncARM assembles an arms function into the unit.
func (u *Unit) AddFuncARM(name string, a *arms.Asm) *Unit {
	if u.Arch != isa.ArchARMS {
		u.setErr(fmt.Errorf("unit %s: arms function %q added to %s unit", u.Arch, name, u.Arch))
		return u
	}
	code, err := a.Assemble()
	if err != nil {
		u.setErr(fmt.Errorf("assemble %s: %w", name, err))
		return u
	}
	fn := &Function{Name: name, Bytes: code.Bytes, key: pieceKeys.Add(1)}
	for _, r := range code.Relocs {
		var kind RelocKind
		switch r.Kind {
		case arms.RelocMovWT:
			kind = RelocArmMovWT
		case arms.RelocBranch:
			kind = RelocArmBranch
		case arms.RelocWord32:
			kind = RelocWord32
		}
		fn.Relocs = append(fn.Relocs, Reloc{Off: r.Off, Kind: kind, Symbol: r.Symbol, Addend: r.Addend})
	}
	u.Funcs = append(u.Funcs, fn)
	return u
}

// AddRodata adds a read-only data blob.
func (u *Unit) AddRodata(name string, b []byte) *Unit {
	u.ROData = append(u.ROData, Data{Name: name, Bytes: b, Size: uint32(len(b))})
	return u
}

// AddData adds an initialized read-write data blob.
func (u *Unit) AddData(name string, b []byte) *Unit {
	u.RWData = append(u.RWData, Data{Name: name, Bytes: b, Size: uint32(len(b))})
	return u
}

// AddBSS adds a zero-initialized data definition.
func (u *Unit) AddBSS(name string, size uint32) *Unit {
	u.BSS = append(u.BSS, Data{Name: name, Size: size})
	return u
}

// Import declares functions resolved at load time through the PLT/GOT.
// Code references them as "<name>@plt".
func (u *Unit) Import(names ...string) *Unit {
	u.Imports = append(u.Imports, names...)
	return u
}

// Symbol is a resolved name in a linked image.
type Symbol struct {
	Name    string
	Addr    uint32
	Size    uint32
	Section string
}

// Section is an absolute, permissioned chunk of a linked image.
type Section struct {
	Name string
	Addr uint32
	Data []byte
	Perm mem.Perm
}

// Image is a fully linked program or library. Images are immutable once
// linked: a unit's links are shared by every process and worker that
// loads it, so nothing may write an image's sections or maps.
type Image struct {
	Arch     isa.Arch
	Sections []Section
	Symbols  map[string]Symbol
	// PLT maps an imported function name to its PLT stub address; GOT maps
	// it to its GOT slot (which the loader fills with the library address).
	PLT map[string]uint32
	GOT map[string]uint32
	// Layout records the bases the image was linked at.
	Layout Layout

	// sites are the .text ranges of every absolute address the link
	// wrote, sorted by offset: a 32-bit little-endian word (RelocAbs32,
	// RelocWord32, an x86s PLT stub's GOT word) or, 8 bytes long, the
	// 16-bit halves of an arms movw/movt pair (RelocArmMovWT, an arms PLT
	// stub). They are the only bytes a slide changes.
	sites []mem.Site
	// varying are the sites plus the relative branches between
	// functions (RelocRel32, RelocArmBranch): every .text byte whose value
	// depends on placement. pieces are .text's PLT stubs and functions.
	// MapInto and MoveTo declare both to mem (see mem.Memory.Patch).
	varying []mem.Site
	pieces  []mem.Piece
	// funcs are the sorted, distinct addresses of the .text and .plt
	// symbols (see FuncEntries).
	funcs []uint32
}

// Slide returns the image moved by delta: equal, section for section and
// map for map, to linking its unit again at Layout.Slide(delta) with the
// same options. Relative references keep their bytes under a uniform
// move, so only the recorded absolute sites are patched; the other
// sections' bytes are shared with img. Slide(0) is img itself.
func (img *Image) Slide(delta uint32) *Image {
	if delta == 0 {
		return img
	}
	out := &Image{
		Arch:     img.Arch,
		Sections: make([]Section, len(img.Sections)),
		Symbols:  make(map[string]Symbol, len(img.Symbols)),
		PLT:      make(map[string]uint32, len(img.PLT)),
		GOT:      make(map[string]uint32, len(img.GOT)),
		Layout:   img.Layout.Slide(delta),
		sites:    img.sites,
		varying:  img.varying,
		pieces:   img.pieces,
		funcs:    make([]uint32, len(img.funcs)),
	}
	for i, s := range img.Sections {
		s.Addr += delta
		if s.Name == ".text" {
			s.Data = slices.Clone(s.Data)
			for _, site := range img.sites {
				w := s.Data[site.Off:]
				if site.Len == movWTLen {
					lo := binary.LittleEndian.Uint32(w)
					hi := binary.LittleEndian.Uint32(w[4:])
					v := (hi<<16 | lo&0xFFFF) + delta
					binary.LittleEndian.PutUint32(w, lo&^0xFFFF|v&0xFFFF)
					binary.LittleEndian.PutUint32(w[4:], hi&^0xFFFF|v>>16)
				} else {
					binary.LittleEndian.PutUint32(w, binary.LittleEndian.Uint32(w)+delta)
				}
			}
		}
		out.Sections[i] = s
	}
	for name, s := range img.Symbols {
		s.Addr += delta
		out.Symbols[name] = s
	}
	for name, a := range img.PLT {
		out.PLT[name] = a + delta
	}
	for name, a := range img.GOT {
		out.GOT[name] = a + delta
	}
	for i, a := range img.funcs {
		out.funcs[i] = a + delta
	}
	if !slices.IsSorted(out.funcs) { // the move wrapped the address space
		slices.Sort(out.funcs)
	}
	return out
}

// Section returns the named section, or nil.
func (img *Image) Section(name string) *Section {
	for i := range img.Sections {
		if img.Sections[i].Name == name {
			return &img.Sections[i]
		}
	}
	return nil
}

// Lookup returns the address of a symbol.
func (img *Image) Lookup(name string) (uint32, bool) {
	s, ok := img.Symbols[name]
	return s.Addr, ok
}

// FuncEntries returns the sorted, distinct addresses of the image's
// function symbols (.text and .plt, section boundary markers included):
// the entry points a forward-edge CFI check admits. The slice is shared
// and must not be written.
func (img *Image) FuncEntries() []uint32 { return img.funcs }

// funcEntries collects FuncEntries from a symbol table.
func funcEntries(syms map[string]Symbol) []uint32 {
	var out []uint32
	for _, s := range syms {
		if s.Section == ".text" || s.Section == ".plt" {
			out = append(out, s.Addr)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// FuncAt returns the function symbol containing addr, if any.
func (img *Image) FuncAt(addr uint32) (Symbol, bool) {
	var best Symbol
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

// MapInto maps every section of the image into an address space, and
// declares .text's varying sites and pieces (see mem.Memory.Patch).
func (img *Image) MapInto(m *mem.Memory, namePrefix string) error {
	for _, s := range img.Sections {
		seg, err := m.Map(namePrefix+s.Name, s.Addr, uint32(len(s.Data)), s.Perm)
		if err != nil {
			return fmt.Errorf("map %s: %w", s.Name, err)
		}
		seg.Populate(0, s.Data)
		if s.Name == ".text" {
			if err := m.Patch(seg.Name, s.Data, img.varying, img.pieces); err != nil {
				return err
			}
		}
	}
	return nil
}

// MoveTo moves the sections MapInto mapped under namePrefix to where to
// has them, for a to that is img slid (its unit and link options linked
// at img's layout slid by some delta; see Slide): the sections move as
// one group with mem.Memory.Move and only .text's slide sites are
// rewritten, so no section is mapped or filled again and translations of
// the text outlive the slide.
func (img *Image) MoveTo(m *mem.Memory, namePrefix string, to *Image) error {
	names := make([]string, len(to.Sections))
	for i, s := range to.Sections {
		names[i] = namePrefix + s.Name
	}
	text := to.Section(".text")
	if err := m.Move(to.Sections[0].Addr, names...); err != nil {
		return fmt.Errorf("move %s: %w", namePrefix+text.Name, err)
	}
	return m.Patch(namePrefix+text.Name, text.Data, to.varying, to.pieces)
}

// UnmapFrom removes the sections MapInto mapped under namePrefix.
func (img *Image) UnmapFrom(m *mem.Memory, namePrefix string) {
	for _, s := range img.Sections {
		m.Unmap(namePrefix + s.Name)
	}
}
