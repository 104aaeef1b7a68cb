package x86s

import (
	"connlab/internal/isa"
	"connlab/internal/mem"
)

// Block dispatch (see internal/isa/core.go): the shared isa.Core owns the
// block cache, the chain bookkeeping and the hang proof; this file
// supplies what only x86s knows — each instruction's effects, its
// translation, and the executor for translated blocks.

// effects classifies in for the block cache (isa.Fx*). Every control
// transfer plus the syscall and privileged ops end a block: they either
// move PC non-sequentially or hand control to the kernel.
func effects(in *Instr) uint8 {
	switch in.Op {
	case OpPushR, OpPushI, OpPushM, OpMovMR, OpMovMI, OpMovMI8, OpMovMR8, OpMovsb:
		return isa.FxStore
	case OpInt:
		return isa.FxStore | isa.FxEnd
	case OpCallRel, OpCallInd:
		return isa.FxStore | isa.FxCtl | isa.FxEnd
	case OpRet, OpJmpInd:
		return isa.FxCtl | isa.FxEnd
	case OpJmpRel, OpJcc, OpJecxz, OpHlt:
		return isa.FxEnd
	case OpAluRR, OpAluRI:
		if in.MemOperand && in.Alu != AluCmp {
			return isa.FxStore
		}
	}
	return 0
}

// Translate implements isa.Machine.
func (c *CPU) Translate(pc uint32, ins []isa.BlockInstr[Instr]) ([]isa.BlockInstr[Instr], uint8) {
	var fx uint8
	for p := pc; len(ins) < isa.MaxBlockInstrs; {
		window, perm, f := c.m.FetchWindow(p, maxInstrLen)
		if f != nil || perm&mem.PermWrite != 0 {
			break
		}
		in, err := Decode(window)
		if err != nil {
			break
		}
		ins = append(ins, isa.BlockInstr[Instr]{PC: p, In: in})
		if fx |= effects(&in); fx&isa.FxEnd != 0 {
			break
		}
		p += in.Size
	}
	return ins, fx
}

// StepBlock implements isa.CPU.
func (c *CPU) StepBlock(max uint64) isa.Event {
	c.Enter(c.m.Gen(), max)
	for {
		ins := c.Next(c.eip)
		if ins == nil {
			var ev isa.Event
			if ins, ev = c.Slow(c.eip); ins == nil {
				return ev
			}
		}
		if ev := c.execBlock(ins); ev.Kind != isa.EventRetired {
			return c.Exit(ev)
		}
	}
}

// execBlock runs a translated block. Control transfers notify the
// recorder and hooks through Control at the same point Step does, so a
// veto surfaces as the same CFI event with the same instruction count.
// The PC-register invariant matches single-step exactly: entering
// instruction i, c.eip already equals its pc (each retirement below sets
// eip to the next PC, and dispatch only starts a block at the current
// eip), so fault events carry the same PC a faulting Step would report.
func (c *CPU) execBlock(ins []isa.BlockInstr[Instr]) isa.Event {
	for i := range ins {
		in := &ins[i].In
		pc := ins[i].PC
		next := pc + in.Size

		switch in.Op {
		case OpNop:
		case OpHlt:
			return isa.IllegalEvent(pc) // privileged in user mode

		case OpRet:
			tgt, f := c.pop()
			if f != nil {
				return isa.FaultEvent(pc, f)
			}
			if ev := c.Control(isa.ControlReturn, pc, tgt, 0); ev != nil {
				return *ev
			}
			next = tgt

		case OpLeave:
			c.regs[ESP] = c.regs[EBP]
			v, f := c.pop()
			if f != nil {
				return isa.FaultEvent(pc, f)
			}
			c.regs[EBP] = v

		case OpPushR:
			if f := c.push(c.regs[in.R1]); f != nil {
				return isa.FaultEvent(pc, f)
			}
		case OpPushI:
			if f := c.push(in.Imm); f != nil {
				return isa.FaultEvent(pc, f)
			}
		case OpPushM:
			var v uint32
			if in.MemOperand {
				var f *mem.Fault
				v, f = c.m.ReadU32(c.effAddr(*in))
				if f != nil {
					return isa.FaultEvent(pc, f)
				}
			} else {
				v = c.regs[in.R1]
			}
			if f := c.push(v); f != nil {
				return isa.FaultEvent(pc, f)
			}
		case OpPopR:
			v, f := c.pop()
			if f != nil {
				return isa.FaultEvent(pc, f)
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
			v, f := c.m.ReadU32(c.effAddr(*in))
			if f != nil {
				return isa.FaultEvent(pc, f)
			}
			c.regs[in.R1] = v
		case OpMovMR:
			if f := c.m.WriteU32(c.effAddr(*in), c.regs[in.R2]); f != nil {
				return isa.FaultEvent(pc, f)
			}
		case OpMovMI:
			if f := c.m.WriteU32(c.effAddr(*in), in.Imm); f != nil {
				return isa.FaultEvent(pc, f)
			}
		case OpMovMI8:
			if f := c.m.WriteU8(c.effAddr(*in), uint8(in.Imm)); f != nil {
				return isa.FaultEvent(pc, f)
			}
		case OpMovRM8:
			v, f := c.m.ReadU8(c.effAddr(*in))
			if f != nil {
				return isa.FaultEvent(pc, f)
			}
			c.setReg8(in.R1, v)
		case OpMovMR8:
			if f := c.m.WriteU8(c.effAddr(*in), c.reg8(in.R2)); f != nil {
				return isa.FaultEvent(pc, f)
			}
		case OpMovzx8:
			var v uint8
			if in.MemOperand {
				var f *mem.Fault
				v, f = c.m.ReadU8(c.effAddr(*in))
				if f != nil {
					return isa.FaultEvent(pc, f)
				}
			} else {
				v = c.reg8(in.R2)
			}
			c.regs[in.R1] = uint32(v)
		case OpLea:
			c.regs[in.R1] = c.effAddr(*in)

		case OpAluRR, OpAluRI:
			if ev := c.stepAlu(*in); ev != nil {
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
				return isa.FaultEvent(pc, f)
			}
			next = tgt
		case OpCallInd:
			tgt, f := c.indirectTarget(*in)
			if f != nil {
				return isa.FaultEvent(pc, f)
			}
			if ev := c.Control(isa.ControlCall, pc, tgt, next); ev != nil {
				return *ev
			}
			if f := c.push(next); f != nil {
				return isa.FaultEvent(pc, f)
			}
			next = tgt
		case OpJmpInd:
			tgt, f := c.indirectTarget(*in)
			if f != nil {
				return isa.FaultEvent(pc, f)
			}
			if ev := c.Control(isa.ControlJump, pc, tgt, 0); ev != nil {
				return *ev
			}
			next = tgt

		case OpMovsb:
			v, f := c.m.ReadU8(c.regs[ESI])
			if f != nil {
				return isa.FaultEvent(pc, f)
			}
			if f := c.m.WriteU8(c.regs[EDI], v); f != nil {
				return isa.FaultEvent(pc, f)
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
	}
	return isa.Event{Kind: isa.EventRetired, PC: c.eip}
}
