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
//
// The chain also proves hangs. translate records each block's effects:
// fxStore when it writes memory or enters the kernel, fxCtl when its
// terminator notifies hooks and the recorder (which keep state of their
// own, so such a block counts as impure only while one is attached). A
// dispatch that runs past cycleWatch instructions (or half its cap, if
// that is less) continues in watchChain, where across consecutive pure
// block entries a Brent cycle detector keeps one saved state —
// registers, PC, flags — and moves it forward after windows of 1, 3, 7,
// … entries; an impure entry disarms it. Shorter dispatches never pay
// for the detector. When the state at a pure entry equals the saved one,
// the loop
// between them provably never ends: execution is deterministic, the
// generation is fixed for the dispatch, and no memory changed, so every
// read returns the same bytes. fastForward then adds the largest
// multiple of the period that fits before the dispatch limit to the
// instruction count; the rest runs normally, so the limit lands on the
// state brute force reaches.

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
	fx  uint8
	gen uint64
	ins []blockInstr
}

// Block effect bits (bcEntry.fx), consulted by the cycle detector.
const (
	fxStore uint8 = 1 << iota // writes memory or enters the kernel
	fxCtl                     // notifies hooks and the recorder
)

// effects classifies in for bcEntry.fx.
func effects(in *Instr) uint8 {
	switch in.Op {
	case OpPushR, OpPushI, OpPushM, OpMovMR, OpMovMI, OpMovMI8, OpMovMR8, OpMovsb, OpInt:
		return fxStore
	case OpCallRel, OpCallInd:
		return fxStore | fxCtl
	case OpRet, OpJmpInd:
		return fxCtl
	case OpAluRR, OpAluRI:
		if in.MemOperand && in.Alu != AluCmp {
			return fxStore
		}
	}
	return 0
}

// cycleWatch is the number of instructions a dispatch retires before
// its cycle detector wakes. A hang runs the whole budget in one dispatch
// and pays this many instructions before the proof; code that is not
// hung rarely dispatches this long (the victim's longest parses, on
// arms, run about 9k), so its hot path pays nothing for the detector. A
// dispatch capped below 2·cycleWatch wakes it at half the cap instead,
// so short dispatches (the differential harness and fuzzers cap them at
// tens to hundreds of instructions) still reach the proof path.
const cycleWatch = 1 << 14

// cycle is watchChain's Brent cycle detector: the architectural state
// saved at a pure block entry, the instruction count there, and Brent's
// step counter and power.
type cycle struct {
	regs       [numRegs]uint32
	eip        uint32
	fl         flags
	at         uint64
	lam, power uint64 // power 0: nothing saved
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
	var fx uint8
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
		fx |= effects(&in)
		if blockEnder(in.Op) {
			break
		}
		p += in.Size
	}
	*slot = bcEntry{pc: pc, gen: gen, fx: fx, ins: ins}
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
// enters and takes that path on its next dispatch. A chain that runs
// past cycleWatch instructions (or half of max) continues in watchChain,
// which fast-forwards a proven hang.
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
		pc := c.eip
		slot := &c.bc[pc&(bcSize-1)]
		if slot.pc != pc || slot.gen != gen || len(slot.ins) == 0 {
			c.bcStats.Instrs += c.icount - start
			return isa.Event{Kind: isa.EventRetired, PC: pc}
		}
		c.bcStats.Hits++
		if slot.fx&impure != 0 {
			d.power = 0 // disarm
		} else if d.power != 0 && pc == d.eip && c.regs == d.regs && c.fl == d.fl {
			c.fastForward(limit, d.at)
			impure = ^uint8(0) // one proof per dispatch
		} else if d.lam++; d.lam >= d.power {
			d.regs, d.eip, d.fl, d.at = c.regs, pc, c.fl, c.icount
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
	c.hang = isa.Hang{PC: c.eip, Period: period, At: at}
}

// BlockStats implements isa.CPU.
func (c *CPU) BlockStats() isa.BlockStats { return c.bcStats }

// LastHang implements isa.CPU.
func (c *CPU) LastHang() isa.Hang { return c.hang }

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
