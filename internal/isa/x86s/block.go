package x86s

import (
	"connlab/internal/isa"
	"connlab/internal/mem"
)

// Block dispatch (see internal/isa/core.go): the shared isa.Core owns the
// block cache, the chain bookkeeping and the hang proof; this file
// supplies what only x86s knows — each instruction's effects, its
// decode for translation, and the executor for translated blocks.

// effects classifies in for the block cache (isa.Fx*). Conditional
// branches continue their block, jmp rel is followed, and every other
// control transfer plus the syscall and privileged ops end it.
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
	case OpJmpRel:
		return isa.FxJump
	case OpHlt:
		return isa.FxEnd
	case OpAluRR, OpAluRI:
		if in.MemOperand && in.Alu != AluCmp {
			return isa.FxStore
		}
	}
	return 0
}

// DecodeAt implements isa.Machine.
func (c *CPU) DecodeAt(pc uint32, in *Instr) (fx uint8, size, next uint32, ok bool) {
	window, perm, hit := c.m.CodeWindow(pc, maxInstrLen)
	if !hit {
		var f *mem.Fault
		if window, perm, f = c.m.FetchWindow(pc, maxInstrLen); f != nil {
			return 0, 0, 0, false
		}
	}
	if perm&mem.PermWrite != 0 {
		return 0, 0, 0, false
	}
	var err error
	if *in, err = Decode(window); err != nil {
		return 0, 0, 0, false
	}
	fx, size = effects(in), in.Size
	next = pc + size
	if fx&isa.FxJump != 0 {
		next += uint32(in.Disp)
	}
	return fx, size, next, true
}

// StepBlock implements isa.CPU.
func (c *CPU) StepBlock(max uint64) isa.Event {
	c.Enter(max)
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
// eip to the next PC, a followed jmp's next instruction is its target,
// a taken jcc or jecxz leaves the block, and dispatch only starts a
// block at the current eip), so fault events carry the same PC a
// faulting Step would report. An exit to the block's own entry runs the
// block again while isa.Core.Loop allows; when the block is the counted
// byte-copy loop, the whole passes that fit retire first as one step
// (copyPasses).
func (c *CPU) execBlock(ins []isa.BlockInstr[Instr]) isa.Event {
again:
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
				a := c.effAddr(*in)
				var ok bool
				if v, ok = c.m.Load32(a); !ok {
					var f *mem.Fault
					if v, f = c.m.ReadU32(a); f != nil {
						return isa.FaultEvent(pc, f)
					}
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
			a := c.effAddr(*in)
			v, ok := c.m.Load32(a)
			if !ok {
				var f *mem.Fault
				if v, f = c.m.ReadU32(a); f != nil {
					return isa.FaultEvent(pc, f)
				}
			}
			c.regs[in.R1] = v
		case OpMovMR, OpMovMI:
			a, v := c.effAddr(*in), in.Imm
			if in.Op == OpMovMR {
				v = c.regs[in.R2]
			}
			if !c.m.Store32(a, v) {
				if f := c.m.WriteU32(a, v); f != nil {
					return isa.FaultEvent(pc, f)
				}
			}
		case OpMovMI8, OpMovMR8:
			a, v := c.effAddr(*in), uint8(in.Imm)
			if in.Op == OpMovMR8 {
				v = c.reg8(in.R2)
			}
			if !c.m.Store8(a, v) {
				if f := c.m.WriteU8(a, v); f != nil {
					return isa.FaultEvent(pc, f)
				}
			}
		case OpMovRM8:
			a := c.effAddr(*in)
			v, ok := c.m.Load8(a)
			if !ok {
				var f *mem.Fault
				if v, f = c.m.ReadU8(a); f != nil {
					return isa.FaultEvent(pc, f)
				}
			}
			c.setReg8(in.R1, v)
		case OpMovzx8:
			var v uint8
			if in.MemOperand {
				a := c.effAddr(*in)
				var ok bool
				if v, ok = c.m.Load8(a); !ok {
					var f *mem.Fault
					if v, f = c.m.ReadU8(a); f != nil {
						return isa.FaultEvent(pc, f)
					}
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
				c.eip = next + uint32(in.Disp)
				c.Retire()
				goto exit
			}
		case OpJecxz:
			if c.regs[ECX] == 0 {
				c.eip = next + uint32(in.Disp)
				c.Retire()
				goto exit
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
			v, ok := c.m.Load8(c.regs[ESI])
			if !ok {
				var f *mem.Fault
				if v, f = c.m.ReadU8(c.regs[ESI]); f != nil {
					return isa.FaultEvent(pc, f)
				}
			}
			if !c.m.Store8(c.regs[EDI], v) {
				if f := c.m.WriteU8(c.regs[EDI], v); f != nil {
					return isa.FaultEvent(pc, f)
				}
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
exit:
	if c.eip == ins[0].PC {
		if copyLoop(ins) {
			c.copyPasses()
		}
		if c.Loop(len(ins)) {
			goto again
		}
	}
	return isa.Event{Kind: isa.EventRetired, PC: c.eip}
}

// copyLoop reports whether the self-looping block ins is the counted
// byte-copy loop (libc's memcpy), matched on its decoded operands:
//
//	l: jecxz out; movsb; dec ecx; jmp l
func copyLoop(ins []isa.BlockInstr[Instr]) bool {
	return len(ins) == 4 && ins[0].In.Op == OpJecxz && ins[1].In.Op == OpMovsb &&
		ins[2].In.Op == OpDecR && ins[2].In.R1 == ECX && ins[3].In.Op == OpJmpRel &&
		ins[3].PC+ins[3].In.Size+uint32(ins[3].In.Disp) == ins[0].PC
}

// copyPasses retires the copy loop's whole passes that fit
// (isa.Core.CopyPasses) and leaves what they would: esi and edi advanced
// and ecx counted down by k, and the flags of the last dec, which keeps
// CF. The pass that exits, faults or crosses the watch point runs
// interpreted.
func (c *CPU) copyPasses() {
	k, _ := c.CopyPasses(c.regs[EDI], c.regs[ESI], c.regs[ECX], 4)
	if k == 0 {
		return
	}
	c.regs[ESI] += k
	c.regs[EDI] += k
	a := c.regs[ECX] - k + 1 // ecx at the last dec
	c.regs[ECX] -= k
	cf := c.fl.cf
	c.setFlagsSub(a, 1, a-1)
	c.fl.cf = cf
}
