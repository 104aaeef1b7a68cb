package x86s

import (
	"connlab/internal/isa"
	"connlab/internal/mem"
	"connlab/internal/telemetry"
)

// Basic-block translation: straight-line runs of non-writable code are
// pre-decoded once into a flat []blockInstr and executed by a tight loop
// that skips the per-instruction fetch, decode and event construction
// Step pays. Validity is keyed to mem.Memory.Gen(): the generation is
// checked once per block entry, which is sufficient because nothing
// inside a block can move it: stores into non-writable segments fault,
// and Map/Unmap/SetPerm/Reset only happen between Step/StepBlock calls.
// Writable (RWX) code is never translated, so self-modifying shellcode
// always takes the single-step path and sees its own stores immediately.
// Control-flow hooks and the flight recorder are notified from the block
// terminators exactly where Step notifies them; every notifying op ends
// its block, so the per-instruction event order is the same on both
// paths.
//
// The executor duplicates Step's per-op semantics on purpose: folding
// both paths over one shared switch would put a non-inlinable call on
// Step's hot path, and the whole point of the block loop is shedding
// per-instruction overhead. The differential lockstep harness
// (internal/isa/isatest) pins the two paths against each other.

// bcSize is the number of block-cache slots (direct-mapped on the entry
// PC's low bits).
const bcSize = 512

// maxBlockInstrs bounds one translated block. Runs longer than this are
// split; the follow-on block is cached under its own entry PC.
const maxBlockInstrs = 64

// blockInstr is one pre-decoded instruction of a translated block.
type blockInstr struct {
	pc uint32
	in Instr
}

// bcEntry is one block-cache slot: the instructions translated starting
// at pc while the memory generation was gen. gen 0 (the zero value)
// never matches a live Memory. A matching entry with an empty ins slice
// is a negative result — the entry PC is known untranslatable (writable
// code, unfetchable, undecodable) for this generation — and routes the
// dispatch to the single-step fallback without re-probing memory.
type bcEntry struct {
	pc  uint32
	gen uint64
	ins []blockInstr
}

// blockEnder reports whether op terminates a basic block: every control
// transfer plus the syscall and privileged ops, all of which either move
// PC non-sequentially or hand control to the kernel. They execute as the
// block's last instruction.
func blockEnder(op Op) bool {
	switch op {
	case OpRet, OpJmpRel, OpJcc, OpJecxz, OpCallRel, OpCallInd, OpJmpInd, OpInt, OpHlt:
		return true
	}
	return false
}

// translate decodes a straight-line run starting at pc into slot,
// reusing the slot's backing array. It stops at a block ender, at
// maxBlockInstrs, and before any instruction that is not translatable —
// writable segment, fetch fault, window truncation, or decode error —
// leaving that PC for a later dispatch to resolve through the
// single-step path (which reproduces the exact fault/illegal event).
// It reports whether the block holds at least one instruction.
func (c *CPU) translate(slot *bcEntry, pc uint32, gen uint64) bool {
	ins := slot.ins[:0]
	p := pc
	for len(ins) < maxBlockInstrs {
		window, perm, f := c.m.FetchWindow(p, maxInstrLen)
		if f != nil || perm&mem.PermWrite != 0 {
			break
		}
		in, err := Decode(window)
		if err != nil {
			break
		}
		ins = append(ins, blockInstr{pc: p, in: in})
		if blockEnder(in.Op) {
			break
		}
		p += in.Size
	}
	*slot = bcEntry{pc: pc, gen: gen, ins: ins}
	if len(ins) == 0 {
		return false
	}
	c.bcStats.Translated++
	return true
}

// StepBlock implements isa.CPU. It chains translated blocks: after a
// block retires, the dispatch loop immediately looks up the block at the
// new PC and keeps executing until max instructions have retired, a
// non-retired event surfaces, or an untranslatable PC is reached. One
// generation load covers the whole chain — nothing inside StepBlock can
// move the generation, since stores into non-writable segments fault and
// layout changes only happen between CPU calls. Untranslatable PCs
// (writable code, unmapped, undecodable) end the chain: with nothing
// retired yet the call degenerates to a single Step so the interpreter
// reproduces the exact fault/illegal event; otherwise the caller re-
// enters and takes that path on its next dispatch.
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
	for {
		pc := c.eip
		slot := &c.bc[pc&(bcSize-1)]
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
		if ev.Kind != isa.EventRetired || c.icount >= limit {
			c.bcStats.Instrs += c.icount - start
			return ev
		}
	}
}

// BlockStats implements isa.CPU.
func (c *CPU) BlockStats() isa.BlockStats { return c.bcStats }

// execBlock runs a translated block. Control transfers notify the
// recorder and hooks through control at the same point Step does, so a
// veto surfaces as the same CFI event with the same instruction count.
// The PC-register invariant matches single-step exactly: entering
// instruction i, c.eip already equals its pc (each retirement below sets
// eip to the next PC, and dispatch only starts a block at the current
// eip), so fault events carry the same PC a faulting Step would report.
func (c *CPU) execBlock(ins []blockInstr) isa.Event {
	for i := range ins {
		bi := &ins[i]
		in := &bi.in
		pc := bi.pc
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
			if ev := c.control(isa.ControlReturn, pc, tgt, 0); ev != nil {
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
			if ev := c.control(isa.ControlCall, pc, tgt, next); ev != nil {
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
			if ev := c.control(isa.ControlCall, pc, tgt, next); ev != nil {
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
			if ev := c.control(isa.ControlJump, pc, tgt, 0); ev != nil {
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
			if c.rec != nil {
				c.rec.Record(telemetry.CtlSyscall, pc, c.regs[EAX], c.icount)
			}
			c.eip = next
			c.icount++
			return isa.Event{Kind: isa.EventSyscall, PC: next}

		default:
			return isa.IllegalEvent(pc)
		}

		c.eip = next
		c.icount++
	}
	return isa.Event{Kind: isa.EventRetired, PC: c.eip}
}
