package arms

import (
	"math/bits"

	"connlab/internal/isa"
	"connlab/internal/mem"
)

// flags is the NZCV condition-flag set, updated by cmp/tst only.
type flags struct {
	n, z, c, v bool
}

// CPU is a simulated arms hardware thread.
type CPU struct {
	regs [numRegs]uint32 // r15 (pc) lives here too
	fl   flags
	m    *mem.Memory
	isa.Core[Instr, State]
}

// State is the architectural state block dispatch's cycle detector
// compares: registers (pc included) and flags.
type State struct {
	regs [numRegs]uint32
	fl   flags
}

var _ isa.CPU = (*CPU)(nil)

// New returns a CPU executing from m with all registers zero.
func New(m *mem.Memory) *CPU {
	c := &CPU{m: m}
	c.Init(c, 2) // word-aligned instructions
	return c
}

// ArchState implements isa.Machine.
func (c *CPU) ArchState() State { return State{c.regs, c.fl} }

// Arch implements isa.CPU.
func (c *CPU) Arch() isa.Arch { return isa.ArchARMS }

// Mem implements isa.CPU.
func (c *CPU) Mem() *mem.Memory { return c.m }

// PC implements isa.CPU.
func (c *CPU) PC() uint32 { return c.regs[PC] }

// SetPC implements isa.CPU.
func (c *CPU) SetPC(v uint32) { c.regs[PC] = v }

// SP implements isa.CPU.
func (c *CPU) SP() uint32 { return c.regs[SP] }

// SetSP implements isa.CPU.
func (c *CPU) SetSP(v uint32) { c.regs[SP] = v }

// Reg implements isa.CPU.
func (c *CPU) Reg(i int) uint32 {
	if i < 0 || i >= numRegs {
		panic(isa.RegOutOfRange(isa.ArchARMS, i))
	}
	return c.regs[i]
}

// SetReg implements isa.CPU.
func (c *CPU) SetReg(i int, v uint32) {
	if i < 0 || i >= numRegs {
		panic(isa.RegOutOfRange(isa.ArchARMS, i))
	}
	c.regs[i] = v
}

// NumRegs implements isa.CPU.
func (c *CPU) NumRegs() int { return numRegs }

// RegName implements isa.CPU.
func (c *CPU) RegName(i int) string { return RegName(i) }

// ResetState implements isa.CPU.
func (c *CPU) ResetState() {
	c.regs = [numRegs]uint32{}
	c.fl = flags{}
	c.ResetBlocks()
}

// FlagWord packs the architectural flag state into one word (bit 0 n,
// bit 1 z, bit 2 c, bit 3 v). The assignment is arbitrary but stable;
// the differential lockstep harness compares it across executors.
func (c *CPU) FlagWord() uint32 {
	var w uint32
	if c.fl.n {
		w |= 1
	}
	if c.fl.z {
		w |= 2
	}
	if c.fl.c {
		w |= 4
	}
	if c.fl.v {
		w |= 8
	}
	return w
}

// read reads a source register; reading pc yields the address of the next
// instruction, a simplification of ARM's pc+8.
func (c *CPU) read(i int) uint32 {
	if i == PC {
		return c.regs[PC] + InstrSize
	}
	return c.regs[i]
}

// cond evaluates a branch condition against the flags.
func (c *CPU) cond(cc Cond) bool {
	switch cc {
	case CondAL:
		return true
	case CondEQ:
		return c.fl.z
	case CondNE:
		return !c.fl.z
	case CondLT:
		return c.fl.n != c.fl.v
	case CondGE:
		return c.fl.n == c.fl.v
	case CondGT:
		return !c.fl.z && c.fl.n == c.fl.v
	case CondLE:
		return c.fl.z || c.fl.n != c.fl.v
	case CondLO:
		return !c.fl.c
	case CondHS:
		return c.fl.c
	case CondMI:
		return c.fl.n
	case CondPL:
		return !c.fl.n
	default:
		return false
	}
}

// setFlagsSub sets NZCV for a-b (cmp semantics: C = no borrow).
func (c *CPU) setFlagsSub(a, b uint32) {
	res := a - b
	c.fl.n = int32(res) < 0
	c.fl.z = res == 0
	c.fl.c = a >= b
	c.fl.v = (a^b)&(a^res)&0x80000000 != 0
}

// Step implements isa.CPU.
func (c *CPU) Step() isa.Event {
	pc := c.regs[PC]
	// Fixed-width fast path: one combined segment/permission/bounds
	// check, no window slice. A short fetch (segment ends mid-word) is
	// an illegal instruction, exactly like a truncated Fetch window.
	word, _, short, f := c.m.Fetch32(pc)
	if f != nil {
		return isa.FaultEvent(pc, f)
	}
	if short {
		return isa.IllegalEvent(pc)
	}
	in, err := Decode(word)
	if err != nil {
		return isa.IllegalEvent(pc)
	}
	next := pc + InstrSize
	fault := func(f *mem.Fault) isa.Event { return isa.FaultEvent(pc, f) }

	switch in.Op {
	case OpMovR:
		v := c.read(in.Rn)
		if in.Rd == PC {
			if ev := c.Control(isa.ControlJump, pc, v, 0); ev != nil {
				return *ev
			}
			next = v
		} else {
			c.regs[in.Rd] = v
		}
	case OpMovW:
		c.regs[in.Rd] = uint32(uint16(in.Imm))
	case OpMovT:
		c.regs[in.Rd] = c.regs[in.Rd]&0xFFFF | uint32(uint16(in.Imm))<<16
	case OpAddR:
		c.regs[in.Rd] = c.read(in.Rn) + c.read(in.Rm)
	case OpAddI:
		c.regs[in.Rd] = c.read(in.Rn) + uint32(in.Imm)
	case OpSubR:
		c.regs[in.Rd] = c.read(in.Rn) - c.read(in.Rm)
	case OpSubI:
		c.regs[in.Rd] = c.read(in.Rn) - uint32(in.Imm)
	case OpAndI:
		c.regs[in.Rd] = c.read(in.Rn) & uint32(in.Imm)
	case OpOrrR:
		c.regs[in.Rd] = c.read(in.Rn) | c.read(in.Rm)
	case OpLslI:
		c.regs[in.Rd] = c.read(in.Rn) << (uint32(in.Imm) & 31)
	case OpLsrI:
		c.regs[in.Rd] = c.read(in.Rn) >> (uint32(in.Imm) & 31)

	case OpLdr:
		v, f := c.m.ReadU32(c.read(in.Rn) + uint32(in.Imm))
		if f != nil {
			return fault(f)
		}
		if in.Rd == PC {
			if ev := c.Control(isa.ControlJump, pc, v, 0); ev != nil {
				return *ev
			}
			next = v
		} else {
			c.regs[in.Rd] = v
		}
	case OpStr:
		if f := c.m.WriteU32(c.read(in.Rn)+uint32(in.Imm), c.read(in.Rd)); f != nil {
			return fault(f)
		}
	case OpLdrb:
		v, f := c.m.ReadU8(c.read(in.Rn) + uint32(in.Imm))
		if f != nil {
			return fault(f)
		}
		c.regs[in.Rd] = uint32(v)
	case OpStrb:
		if f := c.m.WriteU8(c.read(in.Rn)+uint32(in.Imm), uint8(c.read(in.Rd))); f != nil {
			return fault(f)
		}

	case OpCmpR:
		c.setFlagsSub(c.read(in.Rd), c.read(in.Rn))
	case OpCmpI:
		c.setFlagsSub(c.read(in.Rd), uint32(in.Imm))
	case OpTstI:
		res := c.read(in.Rd) & uint32(in.Imm)
		c.fl.n = int32(res) < 0
		c.fl.z = res == 0

	case OpB:
		if c.cond(in.Cond) {
			next = pc + InstrSize + uint32(in.Rel)*InstrSize
		}
	case OpBL:
		tgt := pc + InstrSize + uint32(in.Rel)*InstrSize
		ret := pc + InstrSize
		if ev := c.Control(isa.ControlCall, pc, tgt, ret); ev != nil {
			return *ev
		}
		c.regs[LR] = ret
		next = tgt
	case OpBLX:
		tgt := c.read(in.Rd)
		ret := pc + InstrSize
		if ev := c.Control(isa.ControlCall, pc, tgt, ret); ev != nil {
			return *ev
		}
		c.regs[LR] = ret
		next = tgt
	case OpBX:
		tgt := c.read(in.Rd)
		kind := isa.ControlJump
		if in.Rd == LR {
			kind = isa.ControlReturn
		}
		if ev := c.Control(kind, pc, tgt, 0); ev != nil {
			return *ev
		}
		next = tgt

	case OpPush:
		count := uint32(bits.OnesCount16(in.RegList))
		base := c.regs[SP] - 4*count
		addr := base
		for i := 0; i < 16; i++ {
			if in.RegList&(1<<i) == 0 {
				continue
			}
			if f := c.m.WriteU32(addr, c.read(i)); f != nil {
				return fault(f)
			}
			addr += 4
		}
		c.regs[SP] = base
	case OpPop:
		addr := c.regs[SP]
		var newPC uint32
		hasPC := in.RegList&(1<<PC) != 0
		for i := 0; i < 16; i++ {
			if in.RegList&(1<<i) == 0 {
				continue
			}
			v, f := c.m.ReadU32(addr)
			if f != nil {
				return fault(f)
			}
			addr += 4
			if i == PC {
				newPC = v
			} else {
				c.regs[i] = v
			}
		}
		c.regs[SP] = addr
		if hasPC {
			if ev := c.Control(isa.ControlReturn, pc, newPC, 0); ev != nil {
				return *ev
			}
			next = newPC
		}

	case OpSvc:
		c.RecordSyscall(pc, c.regs[R7])
		c.regs[PC] = next
		c.Retire()
		return isa.Event{Kind: isa.EventSyscall, PC: next}

	default:
		return isa.IllegalEvent(pc)
	}

	c.regs[PC] = next
	c.Retire()
	return isa.Event{Kind: isa.EventRetired, PC: next}
}

// Disasm renders arms instructions for the debugger and gadget finder.
type Disasm struct{}

var _ isa.Disassembler = Disasm{}

// DisasmAt implements isa.Disassembler.
func (Disasm) DisasmAt(m *mem.Memory, addr uint32) (string, uint32, error) {
	w, f := m.ReadU32(addr)
	if f != nil {
		return "", 0, f
	}
	in, err := Decode(w)
	if err != nil {
		return "", 0, err
	}
	return in.String(), InstrSize, nil
}
