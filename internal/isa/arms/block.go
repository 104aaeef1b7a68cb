package arms

import (
	"math/bits"

	"connlab/internal/isa"
	"connlab/internal/mem"
)

// Block dispatch (see internal/isa/core.go): the shared isa.Core owns the
// block cache, the chain bookkeeping and the hang proof; this file
// supplies what only arms knows — each instruction's effects, its
// translation, and the executor for translated blocks.

// effects classifies in for the block cache (isa.Fx*). Besides the
// branch/call/syscall ops, any instruction whose destination register is
// PC transfers control and ends its block: pop {...,pc}, ldr pc, mov pc.
// Other writes to PC through Rd are overwritten by the end-of-instruction
// PC update in Step and are therefore straight-line.
func effects(in *Instr) uint8 {
	switch in.Op {
	case OpStr, OpStrb, OpPush:
		return isa.FxStore
	case OpSvc:
		return isa.FxStore | isa.FxEnd
	case OpB:
		return isa.FxEnd
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

// Translate implements isa.Machine. A word cut short by its segment's end
// is untranslatable.
func (c *CPU) Translate(pc uint32, ins []isa.BlockInstr[Instr]) ([]isa.BlockInstr[Instr], uint8) {
	var fx uint8
	for p := pc; len(ins) < isa.MaxBlockInstrs; p += InstrSize {
		word, perm, short, f := c.m.Fetch32(p)
		if f != nil || short || perm&mem.PermWrite != 0 {
			break
		}
		in, err := Decode(word)
		if err != nil {
			break
		}
		ins = append(ins, isa.BlockInstr[Instr]{PC: p, In: in})
		if fx |= effects(&in); fx&isa.FxEnd != 0 {
			break
		}
	}
	return ins, fx
}

// StepBlock implements isa.CPU.
func (c *CPU) StepBlock(max uint64) isa.Event {
	c.Enter(c.m.Gen(), max)
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
// The PC-register invariant matches single-step: at
// instruction i, c.regs[PC] already equals its pc (each retirement sets
// it to next), so read(PC) and fault PCs behave exactly as under Step.
func (c *CPU) execBlock(ins []isa.BlockInstr[Instr]) isa.Event {
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
			v, f := c.m.ReadU32(c.read(in.Rn) + uint32(in.Imm))
			if f != nil {
				return isa.FaultEvent(pc, f)
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
				return isa.FaultEvent(pc, f)
			}
		case OpLdrb:
			v, f := c.m.ReadU8(c.read(in.Rn) + uint32(in.Imm))
			if f != nil {
				return isa.FaultEvent(pc, f)
			}
			c.regs[in.Rd] = uint32(v)
		case OpStrb:
			if f := c.m.WriteU8(c.read(in.Rn)+uint32(in.Imm), uint8(c.read(in.Rd))); f != nil {
				return isa.FaultEvent(pc, f)
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
					return isa.FaultEvent(pc, f)
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
					return isa.FaultEvent(pc, f)
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
	return isa.Event{Kind: isa.EventRetired, PC: c.regs[PC]}
}
