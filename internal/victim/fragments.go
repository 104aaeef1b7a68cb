package victim

import (
	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
	"connlab/internal/kernel"
)

// This file is the program-fragment API: a victim build is no longer a
// monolithic per-arch builder but an ordered composition of named codegen
// building blocks — the top-level parser, the frame-owning record parser,
// the vulnerable copy loop, the callback dispatcher, the emulated
// allocator — each selected by the BuildOpts geometry. The scenario
// compiler picks geometry; Fragments picks fragments; BuildProgram
// assembles them. Legacy BuildOpts values compose to byte-identical
// images (pinned by TestBuildGolden).

// Fragment is one named building block of a victim program. Exactly one
// of X86/ARM is set, matching the architecture it was selected for. The
// assembler thunks take the build's BuildOpts explicitly (rather than
// closing over it) so fragment selection stays allocation-light on the
// build hot path.
type Fragment struct {
	// Name is the function symbol the fragment assembles.
	Name string
	// Role documents which building-block slot the fragment fills
	// ("parser", "frame", "copy-loop", "dispatcher", "allocator",
	// "support").
	Role string
	X86  func(BuildOpts) *x86s.Asm
	ARM  func(BuildOpts) *arms.Asm
}

// heapArenaBase returns the fixed base of the emulated allocator's arena
// (kernel.ArenaOffset) that the heap-site fragments bake into their
// immediates (the heap is never slid by ASLR).
func heapArenaBase(arch isa.Arch) uint32 {
	return kernel.HeapBaseFor(arch) + kernel.ArenaOffset
}

// heapRecordSize is the adjacent callback record the heap-site parse_rr
// allocates after the name buffer (one handler slot plus padding).
const heapRecordSize = 16

// Fragments returns the ordered fragments BuildProgram composes for
// arch/opts. The order is the link order of the program's functions, so
// for a fixed BuildOpts it is part of the determinism contract.
func Fragments(arch isa.Arch, opts BuildOpts) []Fragment {
	if arch == isa.ArchARMS {
		return fragmentsARM(opts)
	}
	return fragmentsX86(opts)
}

func buildProgramX86(opts BuildOpts) *image.Unit {
	u := image.NewUnit(isa.ArchX86S)
	u.Import("memcpy", "memset", "strlen", "execlp", "exit", "write")
	if opts.Site == SiteHeap {
		u.AddData(kernel.HeapCursor, leU32(heapArenaBase(isa.ArchX86S)))
	}
	for _, f := range fragmentsX86(opts) {
		u.AddFuncX86(f.Name, f.X86(opts))
	}
	return u
}

func buildProgramARM(opts BuildOpts) *image.Unit {
	u := image.NewUnit(isa.ArchARMS)
	u.Import("memcpy", "memset", "strlen", "execlp", "exit", "write")
	if opts.Site == SiteHeap {
		u.AddData(kernel.HeapCursor, leU32(heapArenaBase(isa.ArchARMS)))
	}
	for _, f := range fragmentsARM(opts) {
		u.AddFuncARM(f.Name, f.ARM(opts))
	}
	return u
}

func leU32(v uint32) []byte {
	return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
}
