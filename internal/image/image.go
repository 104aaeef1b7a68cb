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
	"fmt"
	"sort"

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
}

// Data is a named data definition. A nil Bytes with Size > 0 is a BSS
// (zero-initialized) definition.
type Data struct {
	Name  string
	Bytes []byte
	Size  uint32
}

// Unit is a relocatable compilation unit.
type Unit struct {
	Arch    isa.Arch
	Funcs   []*Function
	ROData  []Data
	RWData  []Data
	BSS     []Data
	Imports []string // functions reached through the PLT
	err     error
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
	fn := &Function{Name: name, Bytes: code.Bytes}
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
	fn := &Function{Name: name, Bytes: code.Bytes}
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

// Image is a fully linked program or library.
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

// MustLookup returns the address of a symbol, panicking if absent; it is
// for lab-internal wiring where a missing symbol is a build bug.
func (img *Image) MustLookup(name string) uint32 {
	s, ok := img.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("image: undefined symbol %q", name))
	}
	return s.Addr
}

// FuncSymbols returns the function symbols sorted by address.
func (img *Image) FuncSymbols() []Symbol {
	var out []Symbol
	for _, s := range img.Symbols {
		if s.Section == ".text" || s.Section == ".plt" {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
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

// MapInto maps every section of the image into an address space.
func (img *Image) MapInto(m *mem.Memory, namePrefix string) error {
	for _, s := range img.Sections {
		seg, err := m.Map(namePrefix+s.Name, s.Addr, uint32(len(s.Data)), s.Perm)
		if err != nil {
			return fmt.Errorf("map %s: %w", s.Name, err)
		}
		seg.Populate(0, s.Data)
	}
	return nil
}

// UnmapFrom removes the sections MapInto mapped under namePrefix.
func (img *Image) UnmapFrom(m *mem.Memory, namePrefix string) {
	for _, s := range img.Sections {
		m.Unmap(namePrefix + s.Name)
	}
}
