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
	"bytes"
	"cmp"
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
// has been linked: its first link builds the symbol table and data
// sections every later link shares, and Linked remembers its links.
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
	// sharedLink is what every link of the unit shares, built by the
	// first one (see unitLink).
	sharedOnce sync.Once
	sharedLink *unitLink
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
	var buf [64]byte // the key of a unit of up to about 20 functions
	key := appendOptionsKey(buf[:0], opts)
	u.linkMu.Lock()
	base := u.links[string(key)]
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
		u.links[string(key)] = img
	}
	u.linkMu.Unlock()
	return img, nil
}

// appendOptionsKey appends the content of opts to b: options with equal
// keys link to equal images.
func appendOptionsKey(b []byte, opts Options) []byte {
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
	return b
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

// Import is one function an image reaches through the PLT: its stub and
// the GOT slot the loader fills with the library address.
type Import struct {
	Name     string
	PLT, GOT uint32
}

// Image is a fully linked program or library. Images are immutable once
// linked: a unit's links are shared by every process and worker that
// loads it, so nothing may write an image's sections. Its symbols, PLT
// stubs and GOT slots are read through Lookup, Symbols, FuncAt,
// FuncEntries and Import: they live in the tables its link shares with
// every slide of it (and, for the options-independent part, with every
// link of its unit), moved by the image's slide. An Image not built by
// Link (a literal wrapping bytes for the gadget scanner) has none.
type Image struct {
	Arch     isa.Arch
	Sections []Section
	// Layout records the bases the image was linked at.
	Layout Layout

	// t is the link the image is, or was slid from; delta is the slide
	// (t.layout slid by delta is Layout).
	t     *linkTables
	delta uint32
}

// Slide returns the image moved by delta: equal, section for section and
// through every accessor, to linking its unit again at Layout.Slide(delta)
// with the same options. Relative references keep their bytes under a
// uniform move, so only the recorded absolute sites are patched; the
// other sections' bytes and the link's tables are shared with img, and
// the accessors add the slide. Slide(0) is img itself.
func (img *Image) Slide(delta uint32) *Image {
	if delta == 0 {
		return img
	}
	out := &Image{
		Arch:     img.Arch,
		Sections: make([]Section, len(img.Sections)),
		Layout:   img.Layout.Slide(delta),
		t:        img.t,
		delta:    img.delta + delta,
	}
	for i, s := range img.Sections {
		s.Addr += delta
		if s.Name == ".text" {
			s.Data = slices.Clone(s.Data)
			for _, site := range img.t.sites {
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

// addr returns the address of the unit's symbol r in img.
func (img *Image) addr(r symRef) uint32 {
	t := img.t
	var a uint32
	switch r.kind {
	case symFunc:
		a = t.funcAddr[r.fn]
	case symTextStart:
		a = t.textStart
	case symTextEnd:
		a = t.textEnd
	case symPLT:
		a = t.layout.TextBase + r.off
	case symGOT:
		a = t.layout.GOTBase + r.off
	case symRO:
		a = align(t.layout.RODataBase, 4) + r.off
	case symData:
		a = align(t.layout.DataBase, 4) + r.off
	case symBSS:
		a = align(t.layout.BSSBase, 4) + r.off
	case symBSSStart:
		a = t.layout.BSSBase
	}
	return a + img.delta
}

// symbol returns the unit's i-th symbol as it stands in img.
func (img *Image) symbol(i int) Symbol {
	ul := img.t.unit
	r := ul.refs[i]
	return Symbol{Name: ul.names[i], Addr: img.addr(r), Size: r.size, Section: kindSection[r.kind]}
}

// Lookup returns the address of a symbol.
func (img *Image) Lookup(name string) (uint32, bool) {
	if img.t == nil {
		return 0, false
	}
	i, ok := img.t.unit.index[name]
	if !ok {
		return 0, false
	}
	return img.addr(img.t.unit.refs[i]), true
}

// Symbols returns every symbol of the image, sorted by name, in a new
// slice.
func (img *Image) Symbols() []Symbol {
	if img.t == nil {
		return nil
	}
	out := make([]Symbol, len(img.t.unit.names))
	for i := range out {
		out[i] = img.symbol(i)
	}
	slices.SortFunc(out, func(a, b Symbol) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// NumImports returns how many functions the image imports.
func (img *Image) NumImports() int {
	if img.t == nil {
		return 0
	}
	return len(img.t.unit.imports)
}

// Import returns the i-th import, in name order, for i in
// [0, NumImports()).
func (img *Image) Import(i int) Import {
	t := img.t
	return Import{
		Name: t.unit.imports[i],
		PLT:  t.layout.TextBase + uint32(i)*t.unit.stubSize + img.delta,
		GOT:  t.layout.GOTBase + uint32(4*i) + img.delta,
	}
}

// FuncEntries returns the sorted, distinct addresses of the image's
// function symbols (.text and .plt, section boundary markers included):
// the entry points a forward-edge CFI check admits. A link's slice is
// shared and must not be written; a slid image's is made on each call
// (IsFuncEntry asks about one address without it).
func (img *Image) FuncEntries() []uint32 {
	if img.t == nil {
		return nil
	}
	if img.delta == 0 {
		return img.t.funcs
	}
	out := make([]uint32, len(img.t.funcs))
	for i, a := range img.t.funcs {
		out[i] = a + img.delta
	}
	if !slices.IsSorted(out) { // the slide wrapped the address space
		slices.Sort(out)
	}
	return out
}

// IsFuncEntry reports whether addr is one of FuncEntries.
func (img *Image) IsFuncEntry(addr uint32) bool {
	if img.t == nil {
		return false
	}
	_, ok := slices.BinarySearch(img.t.funcs, addr-img.delta)
	return ok
}

// FuncAt returns the function symbol containing addr, if any.
func (img *Image) FuncAt(addr uint32) (Symbol, bool) {
	if img.t == nil {
		return Symbol{}, false
	}
	best, found := -1, uint32(0)
	for i, r := range img.t.unit.refs {
		if r.kind != symFunc && r.kind != symPLT {
			continue // the boundary markers are empty
		}
		a := img.addr(r)
		if addr >= a && addr < a+r.size && (best < 0 || a > found) {
			best, found = i, a
		}
	}
	if best < 0 {
		return Symbol{}, false
	}
	return img.symbol(best), true
}

// MapInto lays the image's sections out in an address space under
// namePrefix, where old's are mapped (nil when none are), and declares
// .text's varying sites and pieces (see mem.Memory.Patch). What is kept
// depends on how the two images relate:
//
//   - img is old slid (both share their link's tables; see Slide): the
//     sections move as one group with mem.Memory.Move and only .text's
//     slide sites are rewritten, so no section is mapped or filled again,
//     every segment keeps its sealed baseline, dirty tracking and stamp
//     (.text's changes with its sites), and translations of the text
//     outlive the slide. It does not allocate unless it fails.
//   - Otherwise a section of old that img has too (same name, address,
//     permissions and bytes) keeps its segment, and with it the same
//     state; old's other sections are unmapped, and img's other sections
//     are mapped and filled. Another link of the same unit at the same
//     layout (a new diversity build, say) thus replaces only .text.
func (img *Image) MapInto(m *mem.Memory, namePrefix string, old *Image) error {
	if old != nil && old.t != nil && old.t == img.t {
		return img.moveFrom(m, namePrefix)
	}
	if old != nil {
		for _, o := range old.Sections {
			if !img.has(o) {
				m.Unmap(namePrefix + o.Name)
			}
		}
	}
	for _, s := range img.Sections {
		if old == nil || !old.has(s) {
			seg, err := m.Map(namePrefix+s.Name, s.Addr, uint32(len(s.Data)), s.Perm)
			if err != nil {
				return fmt.Errorf("map %s: %w", s.Name, err)
			}
			seg.Populate(0, s.Data)
		}
		if s.Name == ".text" {
			if err := m.Patch(namePrefix+s.Name, s.Data, img.t.varying, img.t.pieces); err != nil {
				return err
			}
		}
	}
	return nil
}

// has reports whether img has a section with s's name, address,
// permissions and bytes.
func (img *Image) has(s Section) bool {
	for _, o := range img.Sections {
		if o.Name == s.Name && o.Addr == s.Addr && o.Perm == s.Perm && len(o.Data) == len(s.Data) &&
			(len(o.Data) == 0 || &o.Data[0] == &s.Data[0] || bytes.Equal(o.Data, s.Data)) {
			return true
		}
	}
	return false
}

// moveFrom moves the segments under namePrefix that hold a slide of img
// to where img has them, as one group, and patches .text's sites. A
// link's first section is its .text.
func (img *Image) moveFrom(m *mem.Memory, namePrefix string) error {
	var buf [8]*mem.Segment // a link has at most five sections
	group := buf[:0]
	for _, s := range img.Sections {
		group = append(group, m.Segment(namePrefix+s.Name))
	}
	text := img.Sections[0]
	if err := m.Move(text.Addr, group...); err != nil {
		return fmt.Errorf("move %s: %w", text.Name, err)
	}
	return m.Patch(group[0].Name, text.Data, img.t.varying, img.t.pieces)
}
