package arms

import (
	"math/bits"

	"connlab/internal/isa"
	"connlab/internal/mem"
	"connlab/internal/telemetry"
)

// Basic-block translation for the fixed-width ISA: straight-line runs of
// non-writable code pre-decoded into a flat []blockInstr executed by a
// tight loop. Validity is keyed to mem.Memory.Gen(), checked once per
// block entry — sufficient because nothing inside a block can move the
// generation (stores to non-writable segments fault; layout changes only
// happen between dispatches). Writable code is never translated, so
// self-modifying shellcode always single-steps and sees its own stores.
// Hooks and the flight recorder are notified from the block terminators
// exactly where Step notifies them (see the x86s twin).
//
// The executor duplicates Step's per-op semantics deliberately (see the
// x86s twin for the rationale); the differential lockstep harness in
// internal/isa/isatest pins the two paths against each other. The chain
// loop proves hangs and fast-forwards them exactly (see the x86s twin and
// isa.CPU.StepBlock).

// bcSize is the number of block-cache slots (direct-mapped on the
// word-aligned entry PC).
const bcSize = 512

// maxBlockInstrs bounds one translated block.
const maxBlockInstrs = 64

// blockInstr is one pre-decoded instruction of a translated block.
type blockInstr struct {
	pc uint32
	in Instr
}

// bcEntry is one block-cache slot; see the x86s twin. A matching entry
// with an empty ins slice is a negative result: the entry PC is known
// untranslatable for this generation.
type bcEntry struct {
	pc  uint32
	fx  uint8
	gen uint64
	ins []blockInstr
}

// Block effect bits (bcEntry.fx), consulted by the cycle detector; see
// the x86s twin.
const (
	fxStore uint8 = 1 << iota // writes memory or enters the kernel
	fxCtl                     // notifies hooks and the recorder
)

// effects classifies in for bcEntry.fx.
func effects(in *Instr) uint8 {
	switch in.Op {
	case OpStr, OpStrb, OpPush, OpSvc:
		return fxStore
	case OpBL, OpBLX, OpBX:
		return fxCtl
	case OpPop:
		if in.RegList&(1<<PC) != 0 {
			return fxCtl
		}
	case OpLdr, OpMovR:
		if in.Rd == PC {
			return fxCtl
		}
	}
	return 0
}

// cycleWatch is the number of instructions a dispatch retires before
// its cycle detector wakes (see the x86s twin).
const cycleWatch = 1 << 14

// cycle is watchChain's Brent cycle detector (see the x86s twin): the
// architectural state saved at a pure block entry, the instruction count
// there, and Brent's step counter and power.
type cycle struct {
	regs       [numRegs]uint32
	fl         flags
	at         uint64
	lam, power uint64 // power 0: nothing saved
}

// blockEnder reports whether in terminates a basic block. Besides the
// branch/call/syscall ops, any instruction whose destination register is
// PC transfers control: pop {...,pc}, ldr pc, mov pc. Other writes to PC
// through Rd are overwritten by the end-of-instruction PC update in Step
// and are therefore straight-line.
func blockEnder(in *Instr) bool {
	switch in.Op {
	case OpB, OpBL, OpBLX, OpBX, OpSvc:
		return true
	case OpPop:
		return in.RegList&(1<<PC) != 0
	case OpLdr, OpMovR:
		return in.Rd == PC
	}
	return false
}

// translate decodes a straight-line run starting at pc into slot,
// reusing the slot's backing array. It stops at a block ender, at
// maxBlockInstrs, and before any word that is not translatable (writable
// segment, fetch fault, short fetch at a segment end, decode error),
// leaving that PC for the single-step path to resolve with the exact
// event Step would produce.
func (c *CPU) translate(slot *bcEntry, pc uint32, gen uint64) bool {
	ins := slot.ins[:0]
	p := pc
	var fx uint8
	for len(ins) < maxBlockInstrs {
		word, perm, short, f := c.m.Fetch32(p)
		if f != nil || short || perm&mem.PermWrite != 0 {
			break
		}
		in, err := Decode(word)
		if err != nil {
			break
		}
		ins = append(ins, blockInstr{pc: p, in: in})
		fx |= effects(&in)
		if blockEnder(&in) {
			break
		}
		p += InstrSize
	}
	*slot = bcEntry{pc: pc, gen: gen, fx: fx, ins: ins}
	if len(ins) == 0 {
		return false
	}
	c.bcStats.Translated++
	return true
}

// StepBlock implements isa.CPU. Like the x86s twin it chains translated
// blocks: after a block retires, the dispatch loop immediately looks up
// the block at the new PC and keeps executing until max instructions
// have retired, a non-retired event surfaces, or an untranslatable PC is
// reached. One generation load covers the whole chain — nothing inside
// StepBlock can move the generation. At an untranslatable PC with
// nothing retired yet, the call degenerates to a single Step so the
// interpreter reproduces the exact fault/illegal event; otherwise it
// returns EventRetired and the caller's next dispatch takes that path.
// A chain that runs past cycleWatch instructions (or half of max)
// continues in watchChain, which fast-forwards a proven hang (see the
// x86s twin).
func (c *CPU) StepBlock(max uint64) isa.Event {
	if max == 0 {
		max = 1
	}
	gen := c.m.Gen()
	start := c.icount
	limit := c.icount + max
	if limit < c.icount { // saturate on wraparound
		limit = ^uint64(0)
	}
	// A dispatch that runs past stop continues in watchChain, with the
	// cycle detector awake.
	stop := limit
	if max > 1 {
		stop = start + min(max/2, cycleWatch)
	}
	for {
		pc := c.regs[PC]
		slot := &c.bc[(pc>>2)&(bcSize-1)]
		if slot.pc != pc || slot.gen != gen {
			// Only the dispatch's first block pays for a translation
			// attempt; a cold PC mid-chain ends the dispatch and the
			// next one translates it. Beyond bounding per-dispatch
			// translation work, this keeps the common chain exit — a
			// return to the caller's unmapped sentinel — allocation-
			// free: probing it would manufacture a fault object.
			if c.icount > start {
				c.bcStats.Instrs += c.icount - start
				return isa.Event{Kind: isa.EventRetired, PC: pc}
			}
			if slot.pc == pc && slot.gen != 0 {
				c.bcStats.Invalidated++
			}
			c.translate(slot, pc, gen)
		} else if len(slot.ins) > 0 {
			c.bcStats.Hits++
		}
		ins := slot.ins
		if len(ins) == 0 {
			// Negative-cached (or just found untranslatable): fall back
			// to the interpreter, which reproduces the exact event.
			if c.icount > start {
				c.bcStats.Instrs += c.icount - start
				return isa.Event{Kind: isa.EventRetired, PC: pc}
			}
			return c.Step()
		}
		if rem := limit - c.icount; rem < uint64(len(ins)) {
			ins = ins[:rem]
		}
		ev := c.execBlock(ins)
		if ev.Kind != isa.EventRetired || c.icount >= stop {
			if ev.Kind == isa.EventRetired && c.icount < limit {
				return c.watchChain(start, limit, gen)
			}
			c.bcStats.Instrs += c.icount - start
			return ev
		}
	}
}

// watchChain continues StepBlock's chain past its stop with the cycle
// detector awake: every block is already translated (a cold PC ends the
// dispatch), each pure entry feeds the detector, and a proof
// fast-forwards the dispatch once.
func (c *CPU) watchChain(start, limit, gen uint64) isa.Event {
	impure := fxStore
	if c.hooks != nil || c.rec != nil {
		impure |= fxCtl
	}
	var d cycle
	for {
		pc := c.regs[PC]
		slot := &c.bc[(pc>>2)&(bcSize-1)]
		if slot.pc != pc || slot.gen != gen || len(slot.ins) == 0 {
			c.bcStats.Instrs += c.icount - start
			return isa.Event{Kind: isa.EventRetired, PC: pc}
		}
		c.bcStats.Hits++
		if slot.fx&impure != 0 {
			d.power = 0 // disarm
		} else if d.power != 0 && pc == d.regs[PC] && c.regs == d.regs && c.fl == d.fl {
			c.fastForward(limit, d.at)
			impure = ^uint8(0) // one proof per dispatch
		} else if d.lam++; d.lam >= d.power {
			d.regs, d.fl, d.at = c.regs, c.fl, c.icount
			d.lam, d.power = 0, d.power<<1|1 // windows of 1, 3, 7, ... entries
		}
		ins := slot.ins
		if rem := limit - c.icount; rem < uint64(len(ins)) {
			ins = ins[:rem]
		}
		ev := c.execBlock(ins)
		if ev.Kind != isa.EventRetired || c.icount >= limit {
			c.bcStats.Instrs += c.icount - start
			return ev
		}
	}
}

// fastForward records the cycle the detector just closed — the current
// state, first seen at instruction count at — and skips its whole periods
// that fit before limit.
func (c *CPU) fastForward(limit, at uint64) {
	period := c.icount - at
	skip := (limit - c.icount) / period * period
	c.icount += skip
	c.bcStats.Hangs++
	c.bcStats.Skipped += skip
	c.hang = isa.Hang{PC: c.regs[PC], Period: period, At: at}
}

// BlockStats implements isa.CPU.
func (c *CPU) BlockStats() isa.BlockStats { return c.bcStats }

// LastHang implements isa.CPU.
func (c *CPU) LastHang() isa.Hang { return c.hang }

// execBlock runs a translated block. Control transfers notify the
// recorder and hooks through control at the same point Step does, so a
// veto surfaces as the same CFI event with the same instruction count.
// The PC-register invariant matches single-step: at
// instruction i, c.regs[PC] already equals its pc (each retirement sets
// it to next), so read(PC) and fault PCs behave exactly as under Step.
func (c *CPU) execBlock(ins []blockInstr) isa.Event {
	for bi := range ins {
		in := &ins[bi].in
		pc := ins[bi].pc
		next := pc + InstrSize

		switch in.Op {
		case OpMovR:
			v := c.read(in.Rn)
			if in.Rd == PC {
				if ev := c.control(isa.ControlJump, pc, v, 0); ev != nil {
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
				if ev := c.control(isa.ControlJump, pc, v, 0); ev != nil {
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
			if ev := c.control(isa.ControlCall, pc, tgt, ret); ev != nil {
				return *ev
			}
			c.regs[LR] = ret
			next = tgt
		case OpBLX:
			tgt := c.read(in.Rd)
			ret := pc + InstrSize
			if ev := c.control(isa.ControlCall, pc, tgt, ret); ev != nil {
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
			if ev := c.control(kind, pc, tgt, 0); ev != nil {
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
				if ev := c.control(isa.ControlReturn, pc, newPC, 0); ev != nil {
					return *ev
				}
				next = newPC
			}

		case OpSvc:
			if c.rec != nil {
				c.rec.Record(telemetry.CtlSyscall, pc, c.regs[R7], c.icount)
			}
			c.regs[PC] = next
			c.icount++
			return isa.Event{Kind: isa.EventSyscall, PC: next}

		default:
			return isa.IllegalEvent(pc)
		}

		c.regs[PC] = next
		c.icount++
	}
	return isa.Event{Kind: isa.EventRetired, PC: c.regs[PC]}
}
