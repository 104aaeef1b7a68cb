package arms

import (
	"math/bits"

	"connlab/internal/isa"
	"connlab/internal/mem"
)

// Block dispatch (see internal/isa/core.go): the shared isa.Core owns the
// block cache, the chain bookkeeping and the hang proof; this file
// supplies what only arms knows — each instruction's effects, its
// decode for translation, and the executor for translated blocks.

// effects classifies in for the block cache (isa.Fx*). A conditional b
// continues its block and b AL is followed. Besides the call, return and
// syscall ops, any instruction whose destination register is PC
// transfers control and ends its block: pop {...,pc}, ldr pc, mov pc.
// Other writes to PC through Rd are overwritten by the end-of-instruction
// PC update in Step and are therefore straight-line.
func effects(in *Instr) uint8 {
	switch in.Op {
	case OpStr, OpStrb, OpPush:
		return isa.FxStore
	case OpSvc:
		return isa.FxStore | isa.FxEnd
	case OpB:
		if in.Cond == CondAL {
			return isa.FxJump
		}
	case OpBL, OpBLX, OpBX:
		return isa.FxCtl | isa.FxEnd
	case OpPop:
		if in.RegList&(1<<PC) != 0 {
			return isa.FxCtl | isa.FxEnd
		}
	case OpLdr, OpMovR:
		if in.Rd == PC {
			return isa.FxCtl | isa.FxEnd
		}
	}
	return 0
}

// DecodeAt implements isa.Machine. A word cut short by its segment's end
// is untranslatable.
func (c *CPU) DecodeAt(pc uint32, in *Instr) (fx uint8, size, next uint32, ok bool) {
	word, perm, hit := c.m.Code32(pc)
	if !hit {
		var short bool
		var f *mem.Fault
		if word, perm, short, f = c.m.Fetch32(pc); f != nil || short {
			return 0, 0, 0, false
		}
	}
	if perm&mem.PermWrite != 0 {
		return 0, 0, 0, false
	}
	var err error
	if *in, err = Decode(word); err != nil {
		return 0, 0, 0, false
	}
	fx, size = effects(in), InstrSize
	next = pc + size
	if fx&isa.FxJump != 0 {
		next += uint32(in.Rel) * InstrSize
	}
	return fx, size, next, true
}

// StepBlock implements isa.CPU.
func (c *CPU) StepBlock(max uint64) isa.Event {
	c.Enter(max)
	for {
		ins := c.Next(c.regs[PC])
		if ins == nil {
			var ev isa.Event
			if ins, ev = c.Slow(c.regs[PC]); ins == nil {
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
// The PC-register invariant matches single-step: at instruction i,
// c.regs[PC] already equals its pc (each retirement sets it to next, a
// followed b AL's next instruction is its target, and a taken
// conditional b leaves the block), so read(PC) and fault PCs behave
// exactly as under Step. An exit to the block's own entry runs the block
// again while isa.Core.Loop allows; when the block is the counted
// byte-copy loop, the whole passes that fit retire first as one step
// (copyPasses).
func (c *CPU) execBlock(ins []isa.BlockInstr[Instr]) isa.Event {
again:
	for bi := range ins {
		in := &ins[bi].In
		pc := ins[bi].PC
		next := pc + InstrSize

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
			a := c.read(in.Rn) + uint32(in.Imm)
			v, ok := c.m.Load32(a)
			if !ok {
				var f *mem.Fault
				if v, f = c.m.ReadU32(a); f != nil {
					return isa.FaultEvent(pc, f)
				}
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
			a, v := c.read(in.Rn)+uint32(in.Imm), c.read(in.Rd)
			if !c.m.Store32(a, v) {
				if f := c.m.WriteU32(a, v); f != nil {
					return isa.FaultEvent(pc, f)
				}
			}
		case OpLdrb:
			a := c.read(in.Rn) + uint32(in.Imm)
			v, ok := c.m.Load8(a)
			if !ok {
				var f *mem.Fault
				if v, f = c.m.ReadU8(a); f != nil {
					return isa.FaultEvent(pc, f)
				}
			}
			c.regs[in.Rd] = uint32(v)
		case OpStrb:
			a, v := c.read(in.Rn)+uint32(in.Imm), uint8(c.read(in.Rd))
			if !c.m.Store8(a, v) {
				if f := c.m.WriteU8(a, v); f != nil {
					return isa.FaultEvent(pc, f)
				}
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
			if in.Cond == CondAL {
				next += uint32(in.Rel) * InstrSize
			} else if c.cond(in.Cond) {
				c.regs[PC] = next + uint32(in.Rel)*InstrSize
				c.Retire()
				goto exit
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
				if v := c.read(i); !c.m.Store32(addr, v) {
					if f := c.m.WriteU32(addr, v); f != nil {
						return isa.FaultEvent(pc, f)
					}
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
				v, ok := c.m.Load32(addr)
				if !ok {
					var f *mem.Fault
					if v, f = c.m.ReadU32(addr); f != nil {
						return isa.FaultEvent(pc, f)
					}
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
	}
exit:
	if c.regs[PC] == ins[0].PC {
		if rc, rt, rs, rd, ok := copyLoop(ins); ok {
			c.copyPasses(rc, rt, rs, rd)
		}
		if c.Loop(len(ins)) {
			goto again
		}
	}
	return isa.Event{Kind: isa.EventRetired, PC: c.regs[PC]}
}

// copyLoop matches the self-looping block ins against the counted
// byte-copy loop (libc's memcpy) on its decoded operands, with rc, rt, rs
// and rd distinct and none of them PC, and returns those registers:
//
//	l: cmp rc, #0; beq out; ldrb rt, [rs]; strb rt, [rd]
//	   add rd, rd, #1; add rs, rs, #1; sub rc, rc, #1; b l
func copyLoop(ins []isa.BlockInstr[Instr]) (rc, rt, rs, rd int, ok bool) {
	if len(ins) != 8 {
		return 0, 0, 0, 0, false
	}
	cmp, beq, ld, st := &ins[0].In, &ins[1].In, &ins[2].In, &ins[3].In
	addD, addS, sub, b := &ins[4].In, &ins[5].In, &ins[6].In, &ins[7].In
	rc, rt, rs, rd = cmp.Rd, ld.Rd, ld.Rn, st.Rn
	regs := uint32(1)<<rc | uint32(1)<<rt | uint32(1)<<rs | uint32(1)<<rd
	ok = cmp.Op == OpCmpI && cmp.Imm == 0 && beq.Op == OpB && beq.Cond == CondEQ &&
		ld.Op == OpLdrb && ld.Imm == 0 && st.Op == OpStrb && st.Rd == rt && st.Imm == 0 &&
		addD.Op == OpAddI && addD.Rd == rd && addD.Rn == rd && addD.Imm == 1 &&
		addS.Op == OpAddI && addS.Rd == rs && addS.Rn == rs && addS.Imm == 1 &&
		sub.Op == OpSubI && sub.Rd == rc && sub.Rn == rc && sub.Imm == 1 &&
		b.Op == OpB && b.Cond == CondAL && ins[7].PC+InstrSize+uint32(b.Rel)*InstrSize == ins[0].PC &&
		bits.OnesCount32(regs) == 4 && regs&(1<<PC) == 0
	return rc, rt, rs, rd, ok
}

// copyPasses retires the copy loop's whole passes that fit
// (isa.Core.CopyPasses) and leaves what they would: rt holding the last
// byte copied, rs and rd advanced and rc counted down by k, and the flags
// of the last cmp rc, #0. The pass that exits, faults or crosses the
// watch point runs interpreted.
func (c *CPU) copyPasses(rc, rt, rs, rd int) {
	k, last := c.CopyPasses(c.regs[rd], c.regs[rs], c.regs[rc], 8)
	if k == 0 {
		return
	}
	c.regs[rt] = uint32(last)
	c.regs[rs] += k
	c.regs[rd] += k
	c.setFlagsSub(c.regs[rc]-k+1, 0) // rc at the last cmp
	c.regs[rc] -= k
}
