package x86s

import (
	"connlab/internal/isa"
	"connlab/internal/mem"
)

// flags is the subset of EFLAGS the lab models.
type flags struct {
	zf, sf, cf, of bool
}

// CPU is a simulated x86s hardware thread.
type CPU struct {
	regs [numRegs]uint32
	eip  uint32
	fl   flags
	m    *mem.Memory
	isa.Core[Instr, State]
}

// State is the architectural state block dispatch's cycle detector
// compares: registers, PC and flags.
type State struct {
	regs [numRegs]uint32
	eip  uint32
	fl   flags
}

var _ isa.CPU = (*CPU)(nil)

// New returns a CPU executing from m with all registers zero.
func New(m *mem.Memory) *CPU {
	c := &CPU{m: m}
	c.Init(c, 0) // byte-aligned instructions
	return c
}

// ArchState implements isa.Machine.
func (c *CPU) ArchState() State { return State{c.regs, c.eip, c.fl} }

// Arch implements isa.CPU.
func (c *CPU) Arch() isa.Arch { return isa.ArchX86S }

// Mem implements isa.CPU.
func (c *CPU) Mem() *mem.Memory { return c.m }

// PC implements isa.CPU.
func (c *CPU) PC() uint32 { return c.eip }

// SetPC implements isa.CPU.
func (c *CPU) SetPC(v uint32) { c.eip = v }

// SP implements isa.CPU.
func (c *CPU) SP() uint32 { return c.regs[ESP] }

// SetSP implements isa.CPU.
func (c *CPU) SetSP(v uint32) { c.regs[ESP] = v }

// Reg implements isa.CPU.
func (c *CPU) Reg(i int) uint32 {
	if i < 0 || i >= numRegs {
		panic(isa.RegOutOfRange(isa.ArchX86S, i))
	}
	return c.regs[i]
}

// SetReg implements isa.CPU.
func (c *CPU) SetReg(i int, v uint32) {
	if i < 0 || i >= numRegs {
		panic(isa.RegOutOfRange(isa.ArchX86S, i))
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
	c.eip = 0
	c.fl = flags{}
	c.ResetBlocks()
}

// FlagWord packs the architectural flag state into one word (bit 0 zf,
// bit 1 sf, bit 2 cf, bit 3 of). The assignment is arbitrary but stable;
// the differential lockstep harness compares it across executors.
func (c *CPU) FlagWord() uint32 {
	var w uint32
	if c.fl.zf {
		w |= 1
	}
	if c.fl.sf {
		w |= 2
	}
	if c.fl.cf {
		w |= 4
	}
	if c.fl.of {
		w |= 8
	}
	return w
}

// reg8 reads byte register i (0-3 low bytes, 4-7 high bytes).
func (c *CPU) reg8(i int) uint8 {
	if i < 4 {
		return uint8(c.regs[i])
	}
	return uint8(c.regs[i-4] >> 8)
}

// setReg8 writes byte register i.
func (c *CPU) setReg8(i int, v uint8) {
	if i < 4 {
		c.regs[i] = c.regs[i]&^uint32(0xFF) | uint32(v)
		return
	}
	c.regs[i-4] = c.regs[i-4]&^uint32(0xFF00) | uint32(v)<<8
}

// effAddr computes the effective address of a memory operand.
func (c *CPU) effAddr(in Instr) uint32 {
	if in.Base == MemAbs {
		return uint32(in.Disp)
	}
	return c.regs[in.Base] + uint32(in.Disp)
}

// push stores v at [esp-4] and decrements esp.
func (c *CPU) push(v uint32) *mem.Fault {
	sp := c.regs[ESP] - 4
	if f := c.m.WriteU32(sp, v); f != nil {
		return f
	}
	c.regs[ESP] = sp
	return nil
}

// pop loads from [esp] and increments esp.
func (c *CPU) pop() (uint32, *mem.Fault) {
	v, f := c.m.ReadU32(c.regs[ESP])
	if f != nil {
		return 0, f
	}
	c.regs[ESP] += 4
	return v, nil
}

// setFlagsLogic sets flags after a logical op (cf=of=0).
func (c *CPU) setFlagsLogic(res uint32) {
	c.fl = flags{zf: res == 0, sf: int32(res) < 0}
}

// setFlagsAdd sets flags after a+b.
func (c *CPU) setFlagsAdd(a, b, res uint32) {
	c.fl.zf = res == 0
	c.fl.sf = int32(res) < 0
	c.fl.cf = res < a
	c.fl.of = (a^res)&(b^res)&0x80000000 != 0
}

// setFlagsSub sets flags after a-b.
func (c *CPU) setFlagsSub(a, b, res uint32) {
	c.fl.zf = res == 0
	c.fl.sf = int32(res) < 0
	c.fl.cf = a < b
	c.fl.of = (a^b)&(a^res)&0x80000000 != 0
}

// cond evaluates a condition code against the flags.
func (c *CPU) cond(cc Cond) bool {
	switch cc {
	case CondO:
		return c.fl.of
	case CondNO:
		return !c.fl.of
	case CondB:
		return c.fl.cf
	case CondAE:
		return !c.fl.cf
	case CondE:
		return c.fl.zf
	case CondNE:
		return !c.fl.zf
	case CondBE:
		return c.fl.cf || c.fl.zf
	case CondA:
		return !c.fl.cf && !c.fl.zf
	case CondS:
		return c.fl.sf
	case CondNS:
		return !c.fl.sf
	case CondL:
		return c.fl.sf != c.fl.of
	case CondGE:
		return c.fl.sf == c.fl.of
	case CondLE:
		return c.fl.zf || c.fl.sf != c.fl.of
	case CondG:
		return !c.fl.zf && c.fl.sf == c.fl.of
	default:
		return false
	}
}

// maxInstrLen is the longest encoding the decoder can produce.
const maxInstrLen = 12

// Step implements isa.CPU. It fetches, decodes and executes one
// instruction, reporting the outcome.
func (c *CPU) Step() isa.Event {
	pc := c.eip
	window, _, f := c.m.FetchWindow(pc, maxInstrLen)
	if f != nil {
		return isa.FaultEvent(pc, f)
	}
	in, err := Decode(window)
	if err != nil {
		return isa.IllegalEvent(pc)
	}
	next := pc + in.Size

	fault := func(f *mem.Fault) isa.Event { return isa.FaultEvent(pc, f) }

	switch in.Op {
	case OpNop:
	case OpHlt:
		return isa.IllegalEvent(pc) // privileged in user mode

	case OpRet:
		tgt, f := c.pop()
		if f != nil {
			return fault(f)
		}
		if ev := c.Control(isa.ControlReturn, pc, tgt, 0); ev != nil {
			return *ev
		}
		next = tgt

	case OpLeave:
		c.regs[ESP] = c.regs[EBP]
		v, f := c.pop()
		if f != nil {
			return fault(f)
		}
		c.regs[EBP] = v

	case OpPushR:
		if f := c.push(c.regs[in.R1]); f != nil {
			return fault(f)
		}
	case OpPushI:
		if f := c.push(in.Imm); f != nil {
			return fault(f)
		}
	case OpPushM:
		var v uint32
		if in.MemOperand {
			var f *mem.Fault
			v, f = c.m.ReadU32(c.effAddr(in))
			if f != nil {
				return fault(f)
			}
		} else {
			v = c.regs[in.R1]
		}
		if f := c.push(v); f != nil {
			return fault(f)
		}
	case OpPopR:
		v, f := c.pop()
		if f != nil {
			return fault(f)
		}
		c.regs[in.R1] = v

	case OpIncR:
		a := c.regs[in.R1]
		res := a + 1
		c.regs[in.R1] = res
		cf := c.fl.cf // inc preserves CF
		c.setFlagsAdd(a, 1, res)
		c.fl.cf = cf
	case OpDecR:
		a := c.regs[in.R1]
		res := a - 1
		c.regs[in.R1] = res
		cf := c.fl.cf // dec preserves CF
		c.setFlagsSub(a, 1, res)
		c.fl.cf = cf

	case OpMovRI:
		c.regs[in.R1] = in.Imm
	case OpMovRR:
		c.regs[in.R1] = c.regs[in.R2]
	case OpMovRM:
		v, f := c.m.ReadU32(c.effAddr(in))
		if f != nil {
			return fault(f)
		}
		c.regs[in.R1] = v
	case OpMovMR:
		if f := c.m.WriteU32(c.effAddr(in), c.regs[in.R2]); f != nil {
			return fault(f)
		}
	case OpMovMI:
		if f := c.m.WriteU32(c.effAddr(in), in.Imm); f != nil {
			return fault(f)
		}
	case OpMovMI8:
		if f := c.m.WriteU8(c.effAddr(in), uint8(in.Imm)); f != nil {
			return fault(f)
		}
	case OpMovRM8:
		v, f := c.m.ReadU8(c.effAddr(in))
		if f != nil {
			return fault(f)
		}
		c.setReg8(in.R1, v)
	case OpMovMR8:
		if f := c.m.WriteU8(c.effAddr(in), c.reg8(in.R2)); f != nil {
			return fault(f)
		}
	case OpMovzx8:
		var v uint8
		if in.MemOperand {
			var f *mem.Fault
			v, f = c.m.ReadU8(c.effAddr(in))
			if f != nil {
				return fault(f)
			}
		} else {
			v = c.reg8(in.R2)
		}
		c.regs[in.R1] = uint32(v)
	case OpLea:
		c.regs[in.R1] = c.effAddr(in)

	case OpAluRR, OpAluRI:
		if ev := c.stepAlu(in); ev != nil {
			return isa.Event{Kind: ev.Kind, PC: pc, Fault: ev.Fault}
		}
	case OpTestRR:
		c.setFlagsLogic(c.regs[in.R1] & c.regs[in.R2])

	case OpJmpRel:
		next = next + uint32(in.Disp)
	case OpJcc:
		if c.cond(in.Cond) {
			next = next + uint32(in.Disp)
		}
	case OpJecxz:
		if c.regs[ECX] == 0 {
			next = next + uint32(in.Disp)
		}

	case OpCallRel:
		tgt := next + uint32(in.Disp)
		if ev := c.Control(isa.ControlCall, pc, tgt, next); ev != nil {
			return *ev
		}
		if f := c.push(next); f != nil {
			return fault(f)
		}
		next = tgt
	case OpCallInd:
		tgt, f := c.indirectTarget(in)
		if f != nil {
			return fault(f)
		}
		if ev := c.Control(isa.ControlCall, pc, tgt, next); ev != nil {
			return *ev
		}
		if f := c.push(next); f != nil {
			return fault(f)
		}
		next = tgt
	case OpJmpInd:
		tgt, f := c.indirectTarget(in)
		if f != nil {
			return fault(f)
		}
		if ev := c.Control(isa.ControlJump, pc, tgt, 0); ev != nil {
			return *ev
		}
		next = tgt

	case OpMovsb:
		v, f := c.m.ReadU8(c.regs[ESI])
		if f != nil {
			return fault(f)
		}
		if f := c.m.WriteU8(c.regs[EDI], v); f != nil {
			return fault(f)
		}
		c.regs[ESI]++
		c.regs[EDI]++

	case OpShlRI:
		c.regs[in.R1] <<= in.Imm & 31
		c.setFlagsLogic(c.regs[in.R1])
	case OpShrRI:
		c.regs[in.R1] >>= in.Imm & 31
		c.setFlagsLogic(c.regs[in.R1])

	case OpInt:
		c.RecordSyscall(pc, c.regs[EAX])
		c.eip = next
		c.Retire()
		return isa.Event{Kind: isa.EventSyscall, PC: next}

	default:
		return isa.IllegalEvent(pc)
	}

	c.eip = next
	c.Retire()
	return isa.Event{Kind: isa.EventRetired, PC: next}
}

// indirectTarget resolves the target of call/jmp r/m32.
func (c *CPU) indirectTarget(in Instr) (uint32, *mem.Fault) {
	if !in.MemOperand {
		return c.regs[in.R1], nil
	}
	return c.m.ReadU32(c.effAddr(in))
}

// stepAlu executes the ALU dual-form and immediate-form operations.
func (c *CPU) stepAlu(in Instr) *isa.Event {
	// Load the r/m operand.
	var a uint32
	var addr uint32
	if in.MemOperand {
		addr = c.effAddr(in)
		v, f := c.m.ReadU32(addr)
		if f != nil {
			ev := isa.FaultEvent(c.eip, f)
			return &ev
		}
		a = v
	} else {
		a = c.regs[in.R1]
	}
	b := in.Imm
	if in.Op == OpAluRR {
		b = c.regs[in.R2]
	}

	var res uint32
	store := true
	switch in.Alu {
	case AluAdd:
		res = a + b
		c.setFlagsAdd(a, b, res)
	case AluOr:
		res = a | b
		c.setFlagsLogic(res)
	case AluAnd:
		res = a & b
		c.setFlagsLogic(res)
	case AluSub:
		res = a - b
		c.setFlagsSub(a, b, res)
	case AluXor:
		res = a ^ b
		c.setFlagsLogic(res)
	case AluCmp:
		res = a - b
		c.setFlagsSub(a, b, res)
		store = false
	}
	if !store {
		return nil
	}
	if in.MemOperand {
		if f := c.m.WriteU32(addr, res); f != nil {
			ev := isa.FaultEvent(c.eip, f)
			return &ev
		}
	} else {
		c.regs[in.R1] = res
	}
	return nil
}
