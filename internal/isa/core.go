package isa

import "connlab/internal/telemetry"

// Block dispatch, shared by both ISAs. Straight-line runs of non-writable
// code are pre-decoded once into a flat []BlockInstr and executed by the
// ISA's own tight loop (its execBlock), which skips the per-instruction
// fetch, decode and event construction Step pays. Validity is keyed to
// mem.Memory.Gen(), loaded once per dispatch: nothing inside a dispatch
// can move it, since stores into non-writable segments fault and
// Map/Unmap/SetPerm/Reset only happen between CPU calls. Writable (RWX)
// code is never translated, so self-modifying shellcode always takes the
// single-step path and sees its own stores immediately. Hooks and the
// flight recorder are notified from the block terminators exactly where
// Step notifies them; every notifying instruction ends its block, so the
// event order is the same on both paths.
//
// Each ISA's execBlock duplicates its Step's per-op semantics on purpose:
// folding both over one switch would put a non-inlinable call on Step's
// hot path, and the point of the block loop is shedding per-instruction
// overhead. For the same reason the chain loop lives in each ISA and
// calls its execBlock directly (see Enter); Core supplies the inlinable
// per-block check (Next) and one out-of-line path (Slow) for everything
// else. The differential lockstep harness (internal/isa/isatest) pins
// block dispatch against single-stepping.
//
// The cache is direct-mapped: bcSize slots indexed by the entry PC's low
// bits (above the ISA's instruction alignment). Only a dispatch's first
// block pays for a translation attempt; a cold PC mid-chain ends the
// dispatch and the next one translates it. Besides bounding per-dispatch
// translation work, this keeps the common chain exit, a return to the
// caller's unmapped sentinel, allocation-free: probing it would
// manufacture a fault object. An entry PC that cannot be translated
// (writable, unfetchable or undecodable) is cached as an empty block, and
// a dispatch starting there falls back to exactly one Step, which
// reproduces the exact fault or illegal event.
//
// The chain also proves hangs. Translation records each block's effects:
// FxStore when it writes memory or enters the kernel, FxCtl when its
// terminator notifies hooks and the recorder (which keep state of their
// own, so such a block counts as impure only while one is attached). A
// dispatch that runs past cycleWatch instructions (or half its cap, if
// that is less) sends every further block through Slow, where across
// consecutive pure block entries a Brent cycle detector keeps one saved
// architectural state and moves it forward after windows of 1, 3, 7, …
// entries; an impure entry disarms it. When the state at a pure entry
// equals the saved one, the loop between them provably never ends:
// execution is deterministic, the generation is fixed for the dispatch,
// and no memory changed, so every read returns the same bytes.
// The detector then adds the largest multiple of the period that fits
// before the dispatch limit to the instruction count; the rest runs
// normally, so the limit lands on the state brute force reaches.

// bcSize is the number of block-cache slots.
const bcSize = 512

// MaxBlockInstrs bounds one translated block. Runs longer than this are
// split; the follow-on block is cached under its own entry PC.
const MaxBlockInstrs = 64

// cycleWatch is the number of instructions a dispatch retires before its
// cycle detector wakes. A hang runs the whole budget in one dispatch and
// pays this many instructions before the proof; code that is not hung
// rarely dispatches this long (the victim's longest parses, on arms, run
// about 9k), so its hot path pays nothing for the detector. A dispatch
// capped below 2·cycleWatch wakes it at half the cap instead, so short
// dispatches (the differential harness and fuzzers cap them at tens to
// hundreds of instructions) still reach the proof path.
const cycleWatch = 1 << 14

// Effect bits of an instruction; a block's are the union of its
// instructions'.
const (
	FxStore uint8 = 1 << iota // writes memory or enters the kernel
	FxCtl                     // notifies hooks and the recorder
	FxEnd                     // ends its block: moves PC non-sequentially or enters the kernel
)

// BlockInstr is one pre-decoded instruction of a translated block.
type BlockInstr[I any] struct {
	PC uint32
	In I
}

// Machine is what Core needs from its ISA outside the chain loop.
type Machine[I any, S comparable] interface {
	// Translate appends the straight-line run starting at pc to ins and
	// returns it with the union of its effect bits. The run ends after an
	// FxEnd instruction, at MaxBlockInstrs, or before the first
	// instruction that is not translatable: writable, unfetchable, or
	// undecodable. That PC is left for Step to resolve, so an empty run
	// marks pc itself untranslatable.
	Translate(pc uint32, ins []BlockInstr[I]) ([]BlockInstr[I], uint8)
	// Step executes one instruction (the fallback for untranslatable PCs).
	Step() Event
	// ArchState returns the state the cycle detector compares:
	// registers, PC and flags.
	ArchState() S
}

// bcEntry is one block-cache slot: the instructions translated starting
// at pc while the memory generation was gen. gen 0 (the zero value)
// never matches a live Memory. A matching entry with an empty ins slice
// is a negative result: the entry PC is known untranslatable for this
// generation.
type bcEntry[I any] struct {
	pc  uint32
	fx  uint8
	gen uint64
	ins []BlockInstr[I]
}

// cycle is the Brent cycle detector: the state saved at a pure block
// entry, the instruction count there, and Brent's step counter and power.
type cycle[S comparable] struct {
	state      S
	at         uint64
	lam, power uint64 // power 0: nothing saved
}

// Core is the ISA-independent half of a CPU, embedded by both: the
// instruction count, the hooks and flight recorder, the block cache with
// its counters, and the hang proof. I is the ISA's pre-decoded
// instruction, S its comparable architectural state. Init binds it to
// its Machine before first use.
type Core[I any, S comparable] struct {
	icount uint64
	hooks  Hooks
	rec    *telemetry.ControlRecorder
	mach   Machine[I, S]
	shift  uint // log2 of the instruction alignment, for slot indexing

	// The running dispatch: its memory generation, the instruction
	// counts at which it started, wakes the cycle detector and ends, and
	// the effect bits that disarm the detector (0 until it wakes).
	gen, start, stop, limit uint64
	impure                  uint8
	d                       cycle[S]

	stats BlockStats
	hang  Hang
	bc    [bcSize]bcEntry[I]
}

// Init binds the core to m, whose instructions are aligned to
// 1<<alignShift bytes.
func (c *Core[I, S]) Init(m Machine[I, S], alignShift uint) {
	c.mach, c.shift = m, alignShift
}

// SetHooks implements CPU.
func (c *Core[I, S]) SetHooks(h Hooks) { c.hooks = h }

// SetRecorder implements CPU.
func (c *Core[I, S]) SetRecorder(r *telemetry.ControlRecorder) { c.rec = r }

// InstrCount implements CPU.
func (c *Core[I, S]) InstrCount() uint64 { return c.icount }

// BlockStats implements CPU.
func (c *Core[I, S]) BlockStats() BlockStats { return c.stats }

// LastHang implements CPU.
func (c *Core[I, S]) LastHang() Hang { return c.hang }

// Retire counts one retired instruction.
func (c *Core[I, S]) Retire() { c.icount++ }

// Control records a control transfer in the flight recorder and runs the
// installed hook; a hook veto surfaces as a CFI-violation event. It is
// small enough to inline, so an unobserved transfer costs two nil-checks
// and no call on either executor.
func (c *Core[I, S]) Control(kind ControlKind, from, to, ret uint32) *Event {
	if c.rec == nil && c.hooks == nil {
		return nil
	}
	return c.observe(kind, from, to, ret)
}

// observe is Control's out-of-line slow path. telemetry.Ctl* values
// mirror ControlKind, so the kind byte passes straight through.
func (c *Core[I, S]) observe(kind ControlKind, from, to, ret uint32) *Event {
	if c.rec != nil {
		c.rec.Record(uint8(kind), from, to, c.icount)
	}
	if c.hooks == nil {
		return nil
	}
	if err := c.hooks.OnControl(kind, from, to, ret); err != nil {
		return &Event{Kind: EventCFIViolation, PC: from, Reason: err.Error()}
	}
	return nil
}

// RecordSyscall records a syscall entry at pc requesting service nr, if
// a recorder is attached.
func (c *Core[I, S]) RecordSyscall(pc, nr uint32) {
	if c.rec != nil {
		c.rec.Record(telemetry.CtlSyscall, pc, nr, c.icount)
	}
}

// ResetBlocks empties the block cache, keeping the translated-instruction
// storage.
func (c *Core[I, S]) ResetBlocks() {
	for i := range c.bc {
		c.bc[i].pc, c.bc[i].gen = 0, 0
		c.bc[i].ins = c.bc[i].ins[:0]
	}
}

// Enter starts a dispatch of up to max instructions (at least one) in
// memory generation gen. Every ISA's StepBlock is the same loop around
// its own execBlock:
//
//	c.Enter(c.m.Gen(), max)
//	for {
//		ins := c.Next(pc)
//		if ins == nil {
//			var ev isa.Event
//			if ins, ev = c.Slow(pc); ins == nil {
//				return ev
//			}
//		}
//		if ev := c.execBlock(ins); ev.Kind != isa.EventRetired {
//			return c.Exit(ev)
//		}
//	}
func (c *Core[I, S]) Enter(gen, max uint64) {
	if max == 0 {
		max = 1
	}
	c.gen, c.start, c.impure = gen, c.icount, 0
	c.limit = c.icount + max
	if c.limit < c.icount { // saturate on wraparound
		c.limit = ^uint64(0)
	}
	c.stop = c.limit
	if max > 1 {
		c.stop = c.start + min(max/2, cycleWatch)
	}
}

// Next returns the cached block at pc when the chain simply continues:
// the cycle detector is asleep, and the block is cached for this
// generation and fits before the dispatch limit. Otherwise it returns nil
// and the loop calls Slow.
func (c *Core[I, S]) Next(pc uint32) []BlockInstr[I] {
	e := c.slot(pc)
	if c.icount >= c.stop || e.pc != pc || e.gen != c.gen ||
		len(e.ins) == 0 || uint64(len(e.ins)) > c.limit-c.icount {
		return nil
	}
	c.stats.Hits++
	return e.ins
}

// Exit ends the dispatch with ev.
func (c *Core[I, S]) Exit(ev Event) Event {
	c.stats.Instrs += c.icount - c.start
	return ev
}

// slot returns the cache slot pc maps to.
func (c *Core[I, S]) slot(pc uint32) *bcEntry[I] {
	return &c.bc[pc>>(c.shift&31)&(bcSize-1)]
}

// clip cuts ins to the instructions left before the dispatch limit.
func (c *Core[I, S]) clip(ins []BlockInstr[I]) []BlockInstr[I] {
	if rem := c.limit - c.icount; rem < uint64(len(ins)) {
		return ins[:rem]
	}
	return ins
}

// Slow resolves what Next declines. It returns the block to run next, cut
// to the dispatch limit, or nil and the dispatch's final event:
// EventRetired at pc when the limit is reached or the chain reaches a PC
// it may not translate, or the event of the single Step an untranslatable
// dispatch entry falls back to. Past the watch point it serves every block
// and feeds the cycle detector.
func (c *Core[I, S]) Slow(pc uint32) ([]BlockInstr[I], Event) {
	e := c.slot(pc)
	cached := e.pc == pc && e.gen == c.gen
	switch {
	case c.icount >= c.limit: // the budget is spent
	case cached && len(e.ins) > 0:
		c.stats.Hits++
		if c.icount >= c.stop {
			c.watch(pc, e.fx)
		}
		return c.clip(e.ins), Event{}
	case c.icount > c.start: // mid-chain: the next dispatch resolves pc
	default:
		if !cached {
			if e.pc == pc && e.gen != 0 {
				c.stats.Invalidated++
			}
			ins, fx := c.mach.Translate(pc, e.ins[:0])
			*e = bcEntry[I]{pc: pc, gen: c.gen, fx: fx, ins: ins}
			if len(ins) > 0 {
				c.stats.Translated++
			}
		}
		if len(e.ins) == 0 {
			return nil, c.mach.Step()
		}
		return c.clip(e.ins), Event{}
	}
	return nil, c.Exit(Event{Kind: EventRetired, PC: pc})
}

// watch feeds the cycle detector the block entered at pc with effects fx,
// and fast-forwards the dispatch when the state repeats. A proof leaves
// less than one period of budget, so it cannot fire twice in a dispatch.
func (c *Core[I, S]) watch(pc uint32, fx uint8) {
	d := &c.d
	if c.impure == 0 { // the detector wakes
		c.impure = FxStore
		if c.hooks != nil || c.rec != nil {
			c.impure |= FxCtl
		}
		d.lam, d.power = 0, 0
	}
	if fx&c.impure != 0 {
		d.power = 0 // disarm
		return
	}
	st := c.mach.ArchState()
	if d.power != 0 && st == d.state {
		period := c.icount - d.at
		skip := (c.limit - c.icount) / period * period
		c.icount += skip
		c.stats.Hangs++
		c.stats.Skipped += skip
		c.hang = Hang{PC: pc, Period: period, At: d.at}
	} else if d.lam++; d.lam >= d.power {
		d.state, d.at = st, c.icount
		d.lam, d.power = 0, d.power<<1|1 // windows of 1, 3, 7, ... entries
	}
}
