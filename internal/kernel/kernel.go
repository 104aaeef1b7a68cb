// Package kernel simulates the operating-system half of the lab: it loads
// linked images into an address space (applying ASLR slides to the libc
// and stack the way 32-bit Linux does for a non-PIE binary), populates the
// GOT, seeds stack canaries, services system calls, and classifies how an
// emulated run ended — normal return, crash (the paper's DoS outcome), or
// a spawned root shell (the paper's RCE outcome).
package kernel

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"

	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
	"connlab/internal/mem"
	"connlab/internal/seedrand"
	"connlab/internal/telemetry"
)

// Sentinel is the poisoned return address the kernel plants for top-level
// calls; control reaching it means the called function returned normally.
// It is never mapped.
const Sentinel uint32 = 0xDEAD0000

// Page is the allocation granule for ASLR slides.
const Page = 0x1000

// StackSize is the size of the mapped stack region: a small device's
// stack, of which a trial's deepest frames use a few KiB.
const StackSize = 64 << 10

// The scratch heap. Its first bytes are the staging area: HeapBase is
// where a daemon copies an inbound packet before calling the parser. A
// program unit that declares HeapCursor, the heap-site victims' bump
// allocator, also owns the arena [ArenaOffset, ArenaOffset+ArenaSize)
// past the staging area, whose base its code bakes in as an immediate;
// its heap reaches the arena's end. Any other program gets HeapSize.
const (
	// HeapSize is the heap of a program without an arena.
	HeapSize = 64 << 10
	// ArenaOffset is the arena's offset from the heap base.
	ArenaOffset = 0x80000
	// ArenaSize is the arena's size: room for a response of well over 64
	// answers, each a name buffer and a callback record.
	ArenaSize = 0x80000
	// HeapCursor is the data symbol that declares the arena.
	HeapCursor = "heap_cursor"
)

// heapSize returns the size of prog's scratch heap.
func heapSize(prog *image.Unit) uint32 {
	for _, d := range prog.RWData {
		if d.Name == HeapCursor {
			return ArenaOffset + ArenaSize
		}
	}
	return HeapSize
}

// HeapBaseFor returns the fixed base of the scratch heap for arch. The
// heap is never slid by ASLR (matching 32-bit brk heaps of non-PIE
// binaries), so codegen that bakes heap addresses — the victim's emulated
// allocator arena — can rely on these constants.
func HeapBaseFor(arch isa.Arch) uint32 {
	if arch == isa.ArchARMS {
		return 0x00C00000
	}
	return 0x09000000
}

// DefaultInstrBudget bounds one emulated call; exceeding it classifies the
// run as hung (a DoS in its own right).
const DefaultInstrBudget = 10_000_000

// Config describes the protection environment a process runs under — the
// experimental axes of the paper's §III.
type Config struct {
	// WX enables W⊕X (no execution from writable memory).
	WX bool
	// ASLR randomizes the libc base and the stack base per load. The
	// program image itself stays fixed (non-PIE), as in the paper.
	ASLR bool
	// PIE additionally randomizes the program image base (an ablation
	// beyond the paper's setup; defeats the PLT/.bss-based ROP bypass).
	PIE bool
	// Hooks, when non-nil, is installed on the CPU; the CFI mitigation
	// provides a shadow-stack implementation.
	Hooks isa.Hooks
	// Seed drives every randomized decision (ASLR slides, canary values).
	Seed int64
	// ASLREntropyPages is the number of distinct libc slide positions; 0
	// means the default 4096 pages (16 MB of spread, ~12 bits — typical
	// for 32-bit mmap ASLR). Low-entropy configurations model weak
	// embedded ASLR and make brute-forcing measurable.
	ASLREntropyPages int
	// InstrBudget bounds each Call; 0 means DefaultInstrBudget.
	InstrBudget uint64
	// SingleStep forces the pure per-instruction interpreter path,
	// disabling basic-block dispatch and with it hang proofs: every
	// instruction of a hung run executes. The differential lockstep
	// harness (internal/isa/isatest) uses it as the brute-force reference
	// executor; it is also the switch to flip when bisecting a suspected
	// translator bug.
	SingleStep bool
	// LinkOpts tunes program linking (used by the diversity mitigation).
	LinkOpts image.Options
}

// Status is the terminal state of a Call.
type Status uint8

// Call outcome statuses.
const (
	// StatusReturned means the function returned to the kernel sentinel.
	StatusReturned Status = iota + 1
	// StatusShell means the process execed a shell — remote code
	// execution, the paper's headline outcome.
	StatusShell
	// StatusFault is the simulated SIGSEGV/SIGILL crash (DoS outcome).
	StatusFault
	// StatusCFI means a control-flow-integrity hook vetoed a transfer.
	StatusCFI
	// StatusExited means the program called exit().
	StatusExited
	// StatusAborted means a stack-canary check failed (stack smashing
	// detected; crash without code execution).
	StatusAborted
	// StatusTimeout means the instruction budget ran out.
	StatusTimeout
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusReturned:
		return "returned"
	case StatusShell:
		return "shell"
	case StatusFault:
		return "fault"
	case StatusCFI:
		return "cfi-violation"
	case StatusExited:
		return "exited"
	case StatusAborted:
		return "canary-abort"
	case StatusTimeout:
		return "timeout"
	default:
		return "unknown"
	}
}

// ShellSpawn records a successful exec of a shell. The simulated daemon
// runs as root, so UID is always 0 — "Connman natively runs with root
// permissions" (§III).
type ShellSpawn struct {
	// Path is the resolved program path (always the shell here).
	Path string
	// Command is the -c command for system(); empty for bare shells.
	Command string
	// Via names the service used: "execve", "execlp" or "system".
	Via string
	// UID is the credential of the new process.
	UID int
}

// RunResult is the outcome of one emulated call.
type RunResult struct {
	Status Status
	// RetVal is the ABI return value for StatusReturned.
	RetVal uint32
	// Fault is set for StatusFault (nil for illegal-instruction crashes).
	Fault *mem.Fault
	// Illegal marks an undecodable-instruction crash.
	Illegal bool
	// PC is the program counter at the terminal event.
	PC uint32
	// Reason carries CFI-violation detail.
	Reason string
	// Shell is set for StatusShell.
	Shell *ShellSpawn
	// ExitStatus is set for StatusExited.
	ExitStatus uint32
	// Instructions is the number of instructions retired during the call.
	Instructions uint64
	// Hang is set for a StatusTimeout that block dispatch proved: the
	// loop's PC and period, and At, the instruction count into the call
	// at which the repeating state was first seen. Nil when the budget
	// simply ran out (always so under Config.SingleStep).
	Hang *isa.Hang `json:",omitempty"`
}

// Crashed reports whether the run ended in any abnormal termination
// (fault, CFI kill, canary abort, or hang) — the DoS bucket.
func (r RunResult) Crashed() bool {
	switch r.Status {
	case StatusFault, StatusCFI, StatusAborted, StatusTimeout:
		return true
	default:
		return false
	}
}

// String gives a compact human-readable summary. Every verdict's detail
// is one, so it is built without fmt.
func (r RunResult) String() string {
	switch r.Status {
	case StatusShell:
		return "shell via " + r.Shell.Via + " (uid " + strconv.Itoa(r.Shell.UID) + ")"
	case StatusFault:
		if r.Illegal {
			return string(mem.AppendAddr([]byte("fault: illegal instruction at "), r.PC))
		}
		if r.Fault == nil {
			return "fault: <nil>"
		}
		return "fault: " + r.Fault.Error()
	case StatusCFI:
		return "cfi violation: " + r.Reason
	case StatusReturned:
		return "returned 0x" + strconv.FormatUint(uint64(r.RetVal), 16)
	case StatusExited:
		return "exited " + strconv.FormatUint(uint64(r.ExitStatus), 10)
	case StatusAborted:
		return "stack smashing detected"
	case StatusTimeout:
		return "instruction budget exhausted"
	default:
		return "unknown"
	}
}

// Process is one loaded, runnable program instance.
type Process struct {
	cfg  Config
	arch isa.Arch
	cpu  isa.CPU
	m    *mem.Memory

	// progUnit and libcUnit are the units Prog and Libc are linked from;
	// a recycle into a different layout or onto other units relinks.
	progUnit, libcUnit *image.Unit

	// Prog is the linked program image; Libc the linked C library.
	Prog *image.Image
	Libc *image.Image

	// StackTop is the highest stack address (first frame grows down from
	// just below it).
	StackTop uint32

	stdout bytes.Buffer
	shells []ShellSpawn
	// rng is reseeded with each layout's seed. A seedrand.Source makes
	// the reseed constant-time and allocation-free.
	rng    seedrand.Source
	budget uint64

	// tel is the process's telemetry shard (nil while telemetry is
	// disabled); lastBlock remembers the CPU's monotonic
	// block-translation totals at the previous flush so each Run
	// contributes only its own delta.
	tel       *telemetry.Shard
	lastBlock isa.BlockStats
	// attempt tags this process's telemetry (run accounting, fault
	// events) with the campaign attempt ID — the per-device splitmix64
	// seed — so kernel-level evidence correlates with the stage spans of
	// the attempt that drove it. Zero outside campaigns.
	attempt uint64

	// canary is the guard value drawn for the current placement;
	// guardAddr is where it was written, the program's guard symbol (0
	// when the program declares no guard), looked up when the program
	// image changes.
	guardAddr uint32
	canary    uint32
}

// Layout is the seed-derived address-space placement a Load(cfg) produces.
type Layout struct {
	// ProgSlide is the PIE slide applied to every program section base
	// (0 without PIE).
	ProgSlide uint32
	// LibcBase is the libc link base after any ASLR slide.
	LibcBase uint32
	// StackTop is the highest stack address.
	StackTop uint32
}

// layoutFor consumes the layout draws from rng in Load's exact order. It is
// the single source of layout-randomization policy: Load, Recycle and
// LayoutFor all go through it. A cfg without PIE or ASLR draws nothing, so
// rng may then be nil.
func layoutFor(arch isa.Arch, cfg Config, rng *seedrand.Source) Layout {
	var l Layout
	if cfg.PIE {
		l.ProgSlide = uint32(rng.Intn(0x800)) * Page
	}
	l.LibcBase = image.DefaultLibcBase(arch)
	if cfg.ASLR {
		entropy := cfg.ASLREntropyPages
		if entropy <= 0 {
			entropy = 0x1000
		}
		l.LibcBase += uint32(rng.Intn(entropy)) * Page
	}
	// Without W⊕X the stack is executable, the historical default the
	// paper's first experiments rely on (the permission itself is applied
	// at map time).
	l.StackTop = 0xBFFF8000
	if arch == isa.ArchARMS {
		l.StackTop = 0x7EFF8000
	}
	if cfg.ASLR {
		l.StackTop -= uint32(rng.Intn(0x800)) * 16
		l.StackTop &^= 15
	}
	return l
}

// LayoutFor predicts the placement Load(cfg) would produce for arch — the
// libc base, stack top and PIE slide — without linking or mapping anything.
// Reconnaissance uses it to sample a replica's address constants cheaply;
// the sample is identical to loading a full replica and reading the same
// addresses.
func LayoutFor(arch isa.Arch, cfg Config) Layout {
	return layoutFor(arch, cfg, seedrand.NewSource(cfg.Seed))
}

// Load links the program unit (at its fixed non-PIE layout unless cfg.PIE)
// and the libc unit (at an ASLR-slid base when cfg.ASLR), maps everything,
// fills the GOT, maps the stack, and seeds the canary guard if the program
// declares one. Placement itself is the shared plan/place pair Recycle
// also uses; Load only adds the first allocation: the address space, the
// stack and the heap (sized by heapSize), and the CPU.
func Load(prog *image.Unit, libc *image.Unit, cfg Config) (*Process, error) {
	m := mem.New()
	// The stack is mapped at its unslid position; place moves it to the
	// layout's top.
	top := layoutFor(prog.Arch, Config{}, nil).StackTop
	if _, err := m.Map("stack", top-StackSize, StackSize, mem.PermRWX); err != nil {
		return nil, fmt.Errorf("map stack: %w", err)
	}
	// Scratch heap for packet buffers and daemon state. Like the stack it
	// is executable unless W⊕X is on: 32-bit Linux of the paper's era made
	// brk/mmap data executable too, which is what heap-resident shellcode
	// relies on.
	if _, err := m.Map("heap", HeapBaseFor(prog.Arch), heapSize(prog), mem.PermRWX); err != nil {
		return nil, fmt.Errorf("map heap: %w", err)
	}

	var cpu isa.CPU
	if prog.Arch == isa.ArchARMS {
		cpu = arms.New(m)
	} else {
		cpu = x86s.New(m)
	}
	p := &Process{arch: prog.Arch, cpu: cpu, m: m}
	pl, err := p.plan(prog, libc, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.place(cfg, pl); err != nil {
		return nil, err
	}
	return p, nil
}

// Recycle rewinds the process to the state a fresh Load(cfg) of its own
// program and libc units would produce; it is RecycleWith on the units
// the process is linked from.
func (p *Process) Recycle(cfg Config) bool {
	return p.RecycleWith(p.progUnit, p.libcUnit, cfg)
}

// RecycleWith rewinds the process to the state a fresh Load(prog, libc,
// cfg) would produce, keeping the address space, the stack and heap,
// and the CPU: memory resets to the sealed baseline, the CPU to
// power-on state, and plan and place lay the process out for cfg,
// relinking only the images that moved or whose unit changed. The units
// may differ from the ones the process was loaded from (another build of
// the same program, say), but must be of the process's ISA.
//
// It reports false, leaving the process untouched, when the units are of
// another ISA, prog needs a heap of another size (see HeapCursor), memory
// cannot be reset (a segment was mapped or unmapped since the last seal)
// or cfg does not link. A layout that links but cannot be mapped, which a
// fresh Load rejects too, also reports false and leaves the process
// unusable.
func (p *Process) RecycleWith(prog, libc *image.Unit, cfg Config) bool {
	if prog.Arch != p.arch || libc.Arch != p.arch || heapSize(prog) != heapSize(p.progUnit) {
		return false
	}
	pl, err := p.plan(prog, libc, cfg)
	if err != nil || !p.m.Reset() {
		return false
	}
	p.cpu.ResetState()
	p.stdout.Reset()
	p.shells = nil
	p.attempt = 0
	return p.place(cfg, pl) == nil
}

// layoutPlan is everything a configuration's seed and link options decide
// about a load, computed before the address space is touched.
type layoutPlan struct {
	lay                Layout
	progUnit, libcUnit *image.Unit
	prog, libc         *image.Image
	canary             uint32
}

// plan replays cfg's seed through layoutFor and links whichever image the
// layout moves, reusing the current image when its unit, placement and
// link options are unchanged. A link is the unit's shared image for the
// link options, slid to the layout (image.Unit.Linked), so a relink is a
// full Link only the first time a unit meets an options value. It does
// not touch the address space, so a link error leaves the process as it
// was.
func (p *Process) plan(progUnit, libcUnit *image.Unit, cfg Config) (layoutPlan, error) {
	pl := layoutPlan{progUnit: progUnit, libcUnit: libcUnit}
	if progUnit == p.progUnit {
		pl.prog = p.Prog
	}
	if libcUnit == p.libcUnit {
		pl.libc = p.Libc
	}
	p.rng.Seed(cfg.Seed)
	pl.lay = layoutFor(p.arch, cfg, &p.rng)
	// Canary guard: like glibc, a random value with a zero low byte (the
	// zero byte terminates accidental string copies; the lab's
	// length-prefixed overflow is unaffected, which is why canaries must
	// be checked, not just present). It is drawn after the layout, from
	// the same stream, and written only if the program declares a guard.
	pl.canary = p.rng.Uint32()<<8 | 0
	progLayout := image.DefaultProgramLayout(p.arch).Slide(pl.lay.ProgSlide)
	if pl.prog == nil || pl.prog.Layout != progLayout || !sameLinkOpts(p.cfg.LinkOpts, cfg.LinkOpts) {
		img, err := progUnit.Linked(progLayout, cfg.LinkOpts)
		if err != nil {
			return pl, fmt.Errorf("link program: %w", err)
		}
		pl.prog = img
	}
	if pl.libc == nil || pl.libc.Layout.TextBase != pl.lay.LibcBase {
		img, err := libcUnit.Linked(image.LibraryLayout(pl.lay.LibcBase), image.Options{})
		if err != nil {
			return pl, fmt.Errorf("link libc: %w", err)
		}
		pl.libc = img
	}
	if pl.prog == p.Prog && pl.libc == p.Libc {
		return pl, nil // checked when they were placed
	}
	for i := 0; i < pl.prog.NumImports(); i++ {
		name := pl.prog.Import(i).Name
		if _, ok := pl.libc.Lookup(name); !ok {
			return pl, fmt.Errorf("load: import %q not provided by libc", name)
		}
	}
	return pl, nil
}

// sameLinkOpts reports whether two link options produce the same program
// image.
func sameLinkOpts(a, b image.Options) bool {
	return (a.Order == nil) == (b.Order == nil) && slices.Equal(a.Order, b.Order) &&
		slices.Equal(a.Pad, b.Pad)
}

// place lays the address space out as pl says, from a freshly mapped or
// freshly reset state: it places each new image over the mapped one
// (image.Image.MapInto moves an image that only slid and otherwise
// replaces the sections that changed, so the segments kept keep their
// baselines and stamps), slides the stack, applies the W⊕X permissions,
// refills the GOT, seals the canary-free baseline and seeds the canary.
func (p *Process) place(cfg Config, pl layoutPlan) error {
	m := p.m
	remapProg, remapLibc := pl.prog != p.Prog, pl.libc != p.Libc
	if remapProg {
		if err := pl.prog.MapInto(m, "", p.Prog); err != nil {
			return fmt.Errorf("map program: %w", err)
		}
	}
	if remapLibc {
		if err := pl.libc.MapInto(m, "libc", p.Libc); err != nil {
			return fmt.Errorf("map libc: %w", err)
		}
	}
	p.Prog, p.Libc = pl.prog, pl.libc
	p.progUnit, p.libcUnit = pl.progUnit, pl.libcUnit
	if remapProg {
		p.guardAddr, _ = p.Prog.Lookup("__stack_chk_guard")
	}

	if err := m.Move(pl.lay.StackTop-StackSize, m.Segment("stack")); err != nil {
		return fmt.Errorf("map stack: %w", err)
	}
	p.StackTop = pl.lay.StackTop

	// Without W⊕X the stack and heap are executable, the historical
	// default the paper's first experiments rely on.
	m.SetWX(cfg.WX)
	perm := mem.PermRWX
	if cfg.WX {
		perm = mem.PermRW
	}
	for _, name := range [...]string{"stack", "heap"} {
		if err := m.SetPerm(name, perm); err != nil {
			return err
		}
	}

	// GOT population: point every import at its libc definition.
	if remapProg || remapLibc {
		for i := 0; i < p.Prog.NumImports(); i++ {
			imp := p.Prog.Import(i)
			addr, _ := p.Libc.Lookup(imp.Name)
			if f := m.WriteU32(imp.GOT, addr); f != nil {
				return fmt.Errorf("load: write got: %w", f)
			}
		}
	}

	p.cfg = cfg
	p.cpu.SetHooks(cfg.Hooks)
	p.budget = cfg.InstrBudget
	if p.budget == 0 {
		p.budget = DefaultInstrBudget
	}
	// Re-take the telemetry handle: a recycled process may outlive the
	// enablement epoch it was loaded under (Enable doubles as a reset).
	p.tel = telemetry.Handle()

	// Seal the canary-free baseline: everything mapped and linked so far is
	// what Reset restores when the process is recycled. The canary below is
	// written through the accessors, so a Reset removes it and the next
	// place reseeds it from the new configuration's stream.
	m.Seal()

	p.canary = pl.canary
	if p.guardAddr != 0 {
		if f := m.WriteU32(p.guardAddr, pl.canary); f != nil {
			return fmt.Errorf("load: seed canary: %w", f)
		}
	}
	return nil
}

// Arch returns the process architecture.
func (p *Process) Arch() isa.Arch { return p.arch }

// Units returns the program and libc units the process is linked from.
func (p *Process) Units() (prog, libc *image.Unit) { return p.progUnit, p.libcUnit }

// CPU returns the process CPU (primarily for the debugger).
func (p *Process) CPU() isa.CPU { return p.cpu }

// SetAttempt tags subsequent run accounting and fault events with the
// campaign attempt ID (the per-device splitmix64 seed). The campaign
// engine calls it when it binds a daemon to a device; a recycle clears
// the tag, as a fresh load starts untagged.
func (p *Process) SetAttempt(id uint64) { p.attempt = id }

// Mem returns the process address space.
func (p *Process) Mem() *mem.Memory { return p.m }

// Config returns the protection configuration the process was loaded with.
func (p *Process) Config() Config { return p.cfg }

// Stdout returns everything the program has written to fd 1.
func (p *Process) Stdout() string { return p.stdout.String() }

// Shells returns every shell spawn recorded so far.
func (p *Process) Shells() []ShellSpawn {
	out := make([]ShellSpawn, len(p.shells))
	copy(out, p.shells)
	return out
}

// HeapBase returns the base of the scratch heap region.
func (p *Process) HeapBase() uint32 {
	return p.m.Segment("heap").Base
}
