// Package isa defines the common contract every simulated CPU in the lab
// implements: a register file, a program counter, a single-step execution
// model, and the event vocabulary (syscall, fault, sentinel return) that the
// simulated kernel and the debugger consume.
//
// Two concrete architectures live in subpackages:
//
//   - x86s (internal/isa/x86s): a 32-bit x86-flavoured CPU with
//     variable-length instructions, stack-passed call arguments and a
//     ret-driven control flow — the "Intel x86 / Ubuntu 16.04" target of the
//     paper.
//   - arms (internal/isa/arms): a 32-bit ARM-flavoured CPU with fixed
//     4-byte instructions, register-passed arguments, a link register and no
//     ret instruction — the "Raspberry Pi 3 / ARMv7" target.
//
// Both faithfully reproduce the properties the paper's exploits depend on
// (see DESIGN.md), while remaining small enough to verify exhaustively.
package isa

import (
	"fmt"

	"connlab/internal/mem"
	"connlab/internal/telemetry"
)

// Arch identifies a simulated instruction set.
type Arch string

// Supported architectures.
const (
	ArchX86S Arch = "x86s"
	ArchARMS Arch = "arms"
)

// EventKind classifies why Step stopped (or what it reported).
type EventKind uint8

// Event kinds returned by CPU.Step.
const (
	// EventRetired is the normal case: one instruction executed.
	EventRetired EventKind = iota + 1
	// EventSyscall means the instruction requested a kernel service; the
	// kernel reads arguments from the register file, performs the service,
	// writes results back and resumes. PC has already advanced past the
	// syscall instruction.
	EventSyscall
	// EventFault is the simulated SIGSEGV/SIGILL: a memory fault or an
	// undecodable instruction. PC still points at the faulting instruction.
	EventFault
	// EventCFIViolation is raised by an installed control-flow hook (the
	// shadow-stack CFI mitigation) when an indirect transfer or return does
	// not match the expected target.
	EventCFIViolation
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventRetired:
		return "retired"
	case EventSyscall:
		return "syscall"
	case EventFault:
		return "fault"
	case EventCFIViolation:
		return "cfi-violation"
	default:
		return "unknown"
	}
}

// Event is the result of executing one instruction.
type Event struct {
	Kind EventKind
	// PC is the program counter after the step for EventRetired/EventSyscall
	// and the faulting PC for EventFault.
	PC uint32
	// Fault is set for EventFault.
	Fault *mem.Fault
	// Illegal is set for EventFault when the bytes at PC did not decode.
	Illegal bool
	// Reason carries detail for EventCFIViolation.
	Reason string
}

// ControlKind classifies a control transfer observed by hooks.
type ControlKind uint8

// Control transfer kinds reported to Hooks.
const (
	// ControlCall is a direct or indirect call (x86s call, arms bl/blx).
	ControlCall ControlKind = iota + 1
	// ControlReturn is a return (x86s ret, arms bx lr / pop {...,pc}).
	ControlReturn
	// ControlJump is a non-linking indirect jump.
	ControlJump
)

// String implements fmt.Stringer.
func (k ControlKind) String() string {
	switch k {
	case ControlCall:
		return "call"
	case ControlReturn:
		return "return"
	case ControlJump:
		return "jump"
	default:
		return "unknown"
	}
}

// Hooks receive control-flow notifications from a CPU. The CFI mitigation
// installs a shadow stack through this interface. A non-nil error vetoes the
// transfer and surfaces as EventCFIViolation.
type Hooks interface {
	// OnControl is invoked after the transfer target is computed but before
	// it takes effect. from is the address of the transferring instruction,
	// to the target, and ret the return address being recorded (calls only).
	OnControl(kind ControlKind, from, to, ret uint32) error
}

// BlockStats are the monotonic basic-block translation counters a CPU
// accumulates across its lifetime. Consumers (the kernel's per-run
// telemetry flush) take deltas.
type BlockStats struct {
	// Translated counts blocks decoded into the block cache.
	Translated uint64
	// Hits counts dispatches served by a still-valid cached block.
	Hits uint64
	// Invalidated counts cached blocks discarded because the memory
	// generation moved under them (SetPerm/Unmap/Map/Reset).
	Invalidated uint64
	// Instrs counts instructions retired inside block dispatch (the
	// remainder of InstrCount went through single-step paths), including
	// those fast-forwarded past a proven cycle.
	Instrs uint64
	// Hangs counts cycles block dispatch proved (see CPU.StepBlock).
	Hangs uint64
	// Skipped counts the instructions fast-forwarded past proven cycles
	// instead of executed; they are part of Instrs and InstrCount.
	Skipped uint64
}

// Hang is block dispatch's proof that execution cannot terminate: the
// architectural state at a pure block entry repeated, so the loop it
// closes runs forever (see CPU.StepBlock).
type Hang struct {
	// PC is the block entry at which the state repeated.
	PC uint32
	// Period is the loop's length in instructions.
	Period uint64
	// At is the instruction count at which the detector first saw the
	// repeating state.
	At uint64
}

// CPU is a single simulated hardware thread. Implementations own their
// register file; memory is shared with the loader and the kernel.
type CPU interface {
	// Arch identifies the instruction set.
	Arch() Arch
	// Mem returns the address space the CPU executes from.
	Mem() *mem.Memory
	// PC returns the program counter.
	PC() uint32
	// SetPC sets the program counter.
	SetPC(v uint32)
	// SP returns the stack pointer.
	SP() uint32
	// SetSP sets the stack pointer.
	SetSP(v uint32)
	// Reg returns general-purpose register i; the numbering is
	// architecture-specific (see RegName).
	Reg(i int) uint32
	// SetReg sets general-purpose register i.
	SetReg(i int, v uint32)
	// NumRegs returns the number of addressable general-purpose registers.
	NumRegs() int
	// RegName returns the conventional name of register i.
	RegName(i int) string
	// SetHooks installs control-flow hooks (nil to remove).
	SetHooks(h Hooks)
	// SetRecorder attaches the hijack flight recorder (nil to detach).
	// While attached, every control transfer — and every syscall entry —
	// is appended to the recorder's fixed ring; the hot path pays one
	// nil-check when detached and never allocates either way.
	SetRecorder(r *telemetry.ControlRecorder)
	// Step executes one instruction and reports what happened.
	Step() Event
	// StepBlock executes up to max instructions (max >= 1) starting at PC
	// through the basic-block translation cache and reports the event of
	// the last instruction executed: EventRetired with the PC after the
	// block when the whole (possibly max-truncated) block retired, or the
	// fault/syscall/illegal event that ended it early. Blocks are decoded
	// from non-writable code only and keyed to Mem().Gen(), so W⊕X,
	// SetPerm/Unmap invalidation and self-modifying-code semantics are
	// identical to Step's. Hooks and the recorder observe every control
	// transfer and syscall entry in the same order, with the same
	// instruction counts, as under Step; a hook veto ends the dispatch
	// with the EventCFIViolation Step would report. When the entry is not
	// block-eligible — writable code, or an unfetchable or undecodable
	// entry instruction — StepBlock falls back to exactly one Step.
	//
	// StepBlock also proves hangs. A translated block is pure when it
	// stores nothing (no store, push or syscall) and, while a hook or the
	// recorder is attached, notifies no control transfer. Once a
	// dispatch has run long (a fixed count, or half of max if that is
	// less), a Brent cycle detector watches the registers, PC and flags
	// across consecutive pure block entries; entering an impure block
	// resets it. A repeated state is a proof: the machine is
	// deterministic, the memory generation is fixed for the dispatch, and
	// no memory changed, so the loop repeats forever. StepBlock then
	// advances the instruction count by whole periods toward max and
	// executes the last partial period normally, so the event, registers,
	// flags, memory and InstrCount are exactly those of brute force. Only
	// StepBlock fast-forwards; Step never does. Both ISAs share the
	// mechanism: see Core.
	StepBlock(max uint64) Event
	// BlockStats returns the monotonic block-translation counters.
	BlockStats() BlockStats
	// LastHang returns the most recent cycle StepBlock proved (zero
	// Period if none).
	LastHang() Hang
	// InstrCount returns the number of instructions retired since reset,
	// used for run budgets and performance reporting.
	InstrCount() uint64
	// ResetState returns registers, PC and flags to their power-on (all
	// zero) values, as if the CPU were freshly constructed, and empties
	// the block cache. InstrCount keeps running (callers consume deltas),
	// and so do the block counters: starting cold keeps each run's
	// counter deltas independent of whatever image the CPU ran before.
	ResetState()
}

// Disassembler renders the instruction at an address, primarily for the
// debugger and the gadget finder.
type Disassembler interface {
	// DisasmAt decodes one instruction at addr, returning its assembly text
	// and encoded length. It fails on undecodable bytes.
	DisasmAt(m *mem.Memory, addr uint32) (text string, size uint32, err error)
}

// FaultEvent is a convenience constructor for fault events.
func FaultEvent(pc uint32, f *mem.Fault) Event {
	return Event{Kind: EventFault, PC: pc, Fault: f}
}

// IllegalEvent is a convenience constructor for illegal-instruction events.
func IllegalEvent(pc uint32) Event {
	return Event{Kind: EventFault, PC: pc, Illegal: true}
}

// RegOutOfRange builds the panic message for register index misuse; misuse
// of register indices is a programming error in the lab itself, not a
// simulated-program error, so implementations panic.
func RegOutOfRange(arch Arch, i int) string {
	return fmt.Sprintf("%s: register index %d out of range", arch, i)
}
