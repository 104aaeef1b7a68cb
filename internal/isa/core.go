package isa

import (
	"math/bits"
	"slices"

	"connlab/internal/mem"
	"connlab/internal/telemetry"
)

// Block dispatch, shared by both ISAs. Runs of non-writable code are
// pre-decoded once into a flat []BlockInstr and executed by the ISA's own
// tight loop (its execBlock), which skips the per-instruction fetch,
// decode and event construction Step pays. Validity is keyed to
// mem.Memory.CodeGen(), loaded once per dispatch: nothing inside a
// dispatch can move it, since stores into non-writable segments fault and
// Map/Unmap/Move/SetPerm/Patch/Reset only happen between CPU calls. A
// layout change that touches writable segments only (the stack sliding,
// or flipping between RW and RWX) keeps it, and with it every slot.
// Writable (RWX) code is never translated, so self-modifying shellcode
// always takes the single-step path and sees its own stores immediately.
//
// Blocks are superblocks. A conditional branch does not end one:
// translation continues at its fall-through, and when the branch is
// taken execBlock leaves the block there (a side exit), retiring the
// branch and setting PC like any other exit. A direct unconditional jump
// (FxJump) does not end one either: translation follows it to its
// target, and stops after it only when the target is already in the
// block. What still ends a block is every indirect transfer, call,
// return and kernel entry (FxEnd), so every instruction that notifies
// hooks or the flight recorder (FxCtl) is a block's last: execBlock
// notifies them exactly where Step does and the event order is the same
// on both paths. A block whose exit, side or final, lands on its own
// entry runs again inside execBlock (Loop), but only while the next pass
// ends at or before stop, so in-place passes never cross the watch point
// or the dispatch limit: the block entries the dispatcher sees past the
// watch point, the budget and the hang proof are exactly those a
// re-dispatch through Next would produce.
//
// At that loop-back, an execBlock whose block is the counted byte-copy
// loop (matched on decoded operands; see each ISA's copyLoop) first
// retires as one step every whole pass CopyPasses proves will retire
// without event: within the count, ending at or before stop, and copying
// bytes its source segment lets it read and its destination segment
// lets it write. A summary may skip nothing else. The pass that exits
// the loop, a pass whose byte would fault and a pass that would cross
// stop run interpreted, so faults, CFI events, the watch point, the
// hang proof and the dispatch limit see exactly what interpreted passes
// show them, and the summary leaves every register, flag, byte, dirty
// range and instruction count as those passes would.
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
// A translation outlives the layout it was made in. A slot orphaned by a
// code generation bump or by ResetBlocks keeps its instructions, and a block
// that lies in one function of a linked image (a mem.Piece) also enters
// a per-Core library keyed by the function and the block's offset in it.
// A refill reuses the slot's block where its bytes stand unchanged, and
// otherwise moves the slot's or the library's block of the same function
// and offset to where the function now lies, decoding again only the
// instructions that may overlap a relocated field: an image slid by a
// PIE or ASLR layout keeps its blocks in their slots, and a diversity
// build, whose functions moved apart, finds them in the library.
// bcEntry's doc is the exactness rule. Dispatch and its counters see
// every refill as a miss and a translation, however it was served.
//
// The chain also proves hangs. Translation records on each instruction
// the effects of the block's path up to and including it: FxStore when
// it writes memory or enters the kernel, FxCtl when it notifies hooks
// and the recorder (which keep state of their own, so such a path counts
// as impure only while one is attached). A dispatch that runs past
// cycleWatch instructions (or half its cap, if that is less) sends every
// further block through Slow, where across consecutive block entries a
// Brent cycle detector keeps one saved architectural state and moves it
// forward after windows of 1, 3, 7, … entries. At each entry it judges
// the path the previous block actually ran, reading the effects at the
// count of instructions that block retired: a store on a side of a
// branch that was not taken does not count, and an impure path disarms
// the detector. When the state at an entry equals the saved one, the
// loop between them provably never ends: execution is deterministic, the
// generation is fixed for the dispatch, and no memory changed, so every
// read returns the same bytes. The detector then adds the largest
// multiple of the period that fits before the dispatch limit to the
// instruction count; the rest runs normally, so the limit lands on the
// state brute force reaches.

// bcSize is the number of block-cache slots.
const bcSize = 512

// MaxBlockInstrs bounds one translated block. Paths longer than this are
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

// Effect bits of an instruction.
const (
	FxStore uint8 = 1 << iota // writes memory or enters the kernel
	FxCtl                     // notifies hooks and the recorder
	FxEnd                     // ends its block: an indirect transfer, call, return or kernel entry
	FxJump                    // a direct unconditional jump: translation follows it
)

// BlockInstr is one pre-decoded instruction of a translated block. Fx is
// the union of the effect bits of the block's instructions up to and
// including this one: the effects of a pass that retired through it.
type BlockInstr[I any] struct {
	PC uint32
	Fx uint8
	In I
}

// Holds reports whether the block ins has an instruction at pc. A direct
// jump to such a pc ends its block's translation.
func Holds[I any](ins []BlockInstr[I], pc uint32) bool {
	for i := range ins {
		if ins[i].PC == pc {
			return true
		}
	}
	return false
}

// Machine is what Core needs from its ISA outside the chain loop.
type Machine[I any, S comparable] interface {
	// DecodeAt decodes the instruction at pc for translation into in,
	// returning its own effect bits, its length in bytes and the PC
	// translation continues at (a direct jump's target, otherwise the
	// next instruction). ok is false when pc is not translatable:
	// writable, unfetchable or undecodable. The instruction must not
	// depend on pc itself (branch targets are relative), so a
	// translation moved with its bytes stays exact.
	DecodeAt(pc uint32, in *I) (fx uint8, size, next uint32, ok bool)
	// Step executes one instruction (the fallback for untranslatable PCs).
	Step() Event
	// ArchState returns the state the cycle detector compares:
	// registers, PC and flags.
	ArchState() S
}

// bcEntry is one block-cache slot: the instructions translated starting
// at pc, valid for dispatch while gen, the code generation
// (mem.Memory.CodeGen) it was last served in tagged with the Core's reset
// epoch (see ResetBlocks), is the dispatch's. gen 0 (the zero value)
// never matches a live Memory. A matching entry with an empty ins slice
// is a negative result: the entry PC is known untranslatable for this
// generation.
//
// A slot whose gen no longer matches keeps its translation, and a refill
// serves it again without decoding while that is exact. A tag that
// differs only in its epoch serves the block as it stands: the code
// generation's bump rules guarantee that no byte any translation read has
// changed. Otherwise its key says when:
//
//   - A block whose instructions all lie in one mem.Piece of a segment,
//     and that ended on its own bytes (an FxEnd, a direct jump back into
//     the block, or MaxBlockInstrs), read nothing but the piece's bytes.
//     It keys to the piece: key is the piece's Key, base its address, at
//     its offset in the segment and code the segment's Stamp. A refill
//     at the same offset into a piece of the same Key, in any segment and
//     at any address, serves the block moved there (every PC by the same
//     distance): decoding is position-independent, and outside its sites
//     a piece holds the bytes its key names, its sites where the key puts
//     them. Unless the segment's stamp and the piece's offset are the
//     block's, so that it reads the very bytes it was decoded from, each
//     instruction that may overlap a site is decoded again and must end
//     or continue the block exactly as before, or the block is
//     translated afresh. Such blocks also enter the Core's library, which
//     serves a piece met at another address (a function a diversity
//     build moved, say) when its slot no longer holds it.
//   - Any other block, including the negative result, keys to the
//     code generation in its tag alone (key 0).
//
// A segment slid by whole pages keeps every slot index, so its blocks
// are found in their own slots.
type bcEntry[I any] struct {
	pc, base, at   uint32
	gen, code, key uint64
	ins            []BlockInstr[I]
	// sited has bit i set when ins[i] may overlap one of its piece's
	// sites: the instructions a move decodes again.
	sited uint64
}

// libKey names a block in the library: its piece's Key and its entry's
// offset into the piece.
type libKey struct {
	key uint64
	off uint32
}

// maxLib bounds a Core's library. A daemon runs a few hundred distinct
// blocks of its program builds and libc.
const maxLib = 1024

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
	space  *mem.Memory
	shift  uint   // log2 of the instruction alignment, for slot indexing
	maxLen uint32 // the longest instruction encoding, in bytes

	// The running dispatch: its code generation tagged with the reset
	// epoch (epoch | CodeGen), the instruction counts at which it
	// started, wakes the cycle detector and ends, and the effect bits
	// that disarm the detector (0 until it wakes). Once awake, last is
	// the block the detector saw entered last, at instruction count
	// lastAt.
	gen, start, stop, limit uint64
	impure                  uint8
	d                       cycle[S]
	last                    []BlockInstr[I]
	lastAt                  uint64

	// epoch counts ResetBlocks calls in units of epochUnit, above every
	// code generation: a slot tagged before the last reset is below it.
	epoch uint64

	stats BlockStats
	hang  Hang
	bc    [bcSize]bcEntry[I]
	lib   map[libKey]bcEntry[I] // piece-local blocks, by piece and offset
	in    I                     // move's decode scratch
}

// Init binds the core to m, executing from space, whose instructions are
// aligned to 1<<alignShift bytes and at most maxLen bytes long.
func (c *Core[I, S]) Init(m Machine[I, S], space *mem.Memory, alignShift uint, maxLen uint32) {
	c.mach, c.space, c.shift, c.maxLen = m, space, alignShift, maxLen
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

// ResetBlocks empties the block cache as dispatch and its counters see
// it: every slot misses, exactly as in a new Core, so a recycled process
// translates, hits and invalidates what a fresh one would. Each slot keeps
// its translation, which Slow serves again, as it stands or moved, where
// bcEntry's key allows. It starts a new epoch instead of visiting the
// slots: every slot tag below the epoch reads as never filled. Only when
// the epoch count wraps, every 2²⁴ resets, are the tags cleared.
func (c *Core[I, S]) ResetBlocks() {
	if c.epoch += epochUnit; c.epoch == 0 {
		for i := range c.bc {
			c.bc[i].gen = 0
		}
	}
}

// epochUnit is one reset epoch in a slot tag: code generations stay
// below it.
const epochUnit = 1 << 40

// Enter starts a dispatch of up to max instructions (at least one) in
// the memory's current code generation. Every ISA's StepBlock is the same
// loop around its own execBlock:
//
//	c.Enter(max)
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
func (c *Core[I, S]) Enter(max uint64) {
	if max == 0 {
		max = 1
	}
	c.gen, c.start, c.impure = c.epoch|c.space.CodeGen(), c.icount, 0
	c.limit = c.icount + max
	if c.limit < c.icount { // saturate on wraparound
		c.limit = ^uint64(0)
	}
	c.stop = c.limit
	if max > 1 {
		c.stop = c.start + min(max/2, cycleWatch)
	}
}

// Loop reports whether a block of n instructions whose exit just landed
// on its own entry may run again in place: the pass must end at or before
// stop, where Next would stop serving it.
func (c *Core[I, S]) Loop(n int) bool { return c.icount+uint64(n) <= c.stop }

// CopyPasses retires, as one step, the whole passes of a counted
// byte-copy loop that fit, for an execBlock that has matched one at its
// loop-back: pass i copies the byte at src+i to dst+i and retires n
// instructions. The k passes taken are the least of count, the passes
// that end at or before stop, and the bytes left in src's readable and
// dst's writable segment, so every pass that would cross the watch point
// or the dispatch limit, or fault, is left to the interpreter. The bytes
// are copied forward one at a time (overlapping ranges read what earlier
// passes wrote, as interpreted passes do) and marked written, and k·n
// instructions retire. It returns k and the last byte copied; the caller
// sets the registers and flags k passes leave.
func (c *Core[I, S]) CopyPasses(dst, src, count uint32, n int) (k uint32, last uint8) {
	if c.icount >= c.stop {
		return 0, 0
	}
	max := min(uint64(count), (c.stop-c.icount)/uint64(n))
	if max == 0 {
		return 0, 0
	}
	from := c.space.Span(src, uint32(max), mem.AccessRead)
	if len(from) == 0 {
		return 0, 0
	}
	to := c.space.Span(dst, uint32(len(from)), mem.AccessWrite)
	if k = uint32(len(to)); k == 0 {
		return 0, 0
	}
	if d := dst - src; d != 0 && d < k {
		for i := range to { // dst trails src: each pass reads an earlier pass's byte
			to[i] = from[i]
		}
	} else {
		copy(to, from)
	}
	c.space.Wrote(dst, k)
	retired := uint64(k) * uint64(n)
	c.icount += retired
	c.stats.Bulk += retired
	return k, to[k-1]
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
			if c.watch(pc, e.ins); c.icount >= c.limit {
				break // a proof spent the budget
			}
		}
		return c.clip(e.ins), Event{}
	case c.icount > c.start: // mid-chain: the next dispatch resolves pc
	default:
		if !cached {
			if e.pc == pc && e.gen > c.epoch { // filled since the last reset
				c.stats.Invalidated++
			}
			c.refill(e, pc)
			e.gen = c.gen
		}
		if len(e.ins) == 0 {
			return nil, c.mach.Step()
		}
		return c.clip(e.ins), Event{}
	}
	return nil, c.Exit(Event{Kind: EventRetired, PC: pc})
}

// Translate appends the block starting at pc to ins, each instruction
// carrying the union of the effects up to it, and returns it. The block
// continues past conditional branches at their fall-through and follows
// direct jumps (FxJump) to their target. It ends after an FxEnd
// instruction, after a direct jump whose target it already Holds, at
// MaxBlockInstrs, or before the first instruction that is not
// translatable: writable, unfetchable, or undecodable. That PC is left for
// Step to resolve, so an empty block marks pc itself untranslatable.
func (c *Core[I, S]) Translate(pc uint32, ins []BlockInstr[I]) []BlockInstr[I] {
	ins, _ = c.translate(pc, ins, 0, 0)
	return ins
}

// translate is Translate, also reporting whether the block is local to
// [lo, lo+n): every instruction lies in it and the block ended on its own
// bytes (see bcEntry).
func (c *Core[I, S]) translate(pc uint32, ins []BlockInstr[I], lo, n uint32) ([]BlockInstr[I], bool) {
	local := n > 0
	var fx uint8
	for p := pc; len(ins) < MaxBlockInstrs; {
		ins = append(ins, BlockInstr[I]{PC: p})
		b := &ins[len(ins)-1]
		e, size, next, ok := c.mach.DecodeAt(p, &b.In)
		if !ok {
			return ins[:len(ins)-1], false
		}
		local = local && uint64(p-lo)+uint64(size) <= uint64(n)
		fx |= e
		b.Fx = fx
		if fx&FxEnd != 0 || e&FxJump != 0 && Holds(ins, next) {
			break
		}
		p = next
	}
	return ins, local
}

// refill serves slot e at pc for a dispatch that missed it, as
// bcEntry's tag and key allow, and counts the block.
func (c *Core[I, S]) refill(e *bcEntry[I], pc uint32) {
	var how *uint64 // the counter for how e was served; nil: as it stood
	if e.pc != pc || e.gen%epochUnit != c.gen%epochUnit {
		how = c.serve(e, pc)
	}
	if len(e.ins) > 0 { // an empty block is no translation
		c.stats.Translated++
		if how != nil {
			*how++
		}
	}
}

// serve refills e at pc in a code generation its block was not last
// served in. It reuses the slot's block as it stands, moves it or the
// library's, or decodes afresh, and returns nil, &stats.Rebased or
// &stats.Decoded to say which.
func (c *Core[I, S]) serve(e *bcEntry[I], pc uint32) *uint64 {
	var p mem.Piece
	var lo uint32
	seg := c.space.Find(pc)
	if seg != nil {
		p, _ = seg.PieceAt(pc - seg.Base)
		lo = seg.Base + p.Off
	}
	if off := pc - lo; p.Len > 0 {
		if e.key == p.Key && e.pc-e.base == off {
			if e.base == lo && e.at == p.Off && e.code == seg.Stamp() {
				return nil
			}
			if c.move(e, e, seg, p) {
				return &c.stats.Rebased
			}
		} else if k, ok := c.lib[libKey{p.Key, off}]; ok && c.move(e, &k, seg, p) {
			return &c.stats.Rebased
		}
	}
	ins, local := c.translate(pc, e.ins[:0], lo, p.Len)
	*e = bcEntry[I]{pc: pc, ins: ins}
	if local {
		e.key, e.base, e.at, e.code = p.Key, lo, p.Off, seg.Stamp()
		for i := range ins {
			if seg.AtSite(ins[i].PC-seg.Base, c.maxLen) {
				e.sited |= 1 << i
			}
		}
		if c.lib == nil {
			c.lib = make(map[libKey]bcEntry[I])
		}
		if len(c.lib) < maxLib {
			k := *e
			k.ins = slices.Clone(ins)
			c.lib[libKey{p.Key, pc - lo}] = k
		}
	}
	return &c.stats.Decoded
}

// move serves slot e with src's piece-local block (e's own, or a library
// copy) moved to piece p of seg (see bcEntry). Unless seg's stamp and
// the piece's offset are src's, each instruction that may overlap a site
// is decoded again and must end or continue the block exactly as
// Translate would; otherwise move reports false and the block must be
// translated afresh.
func (c *Core[I, S]) move(e, src *bcEntry[I], seg *mem.Segment, p mem.Piece) bool {
	lo := seg.Base + p.Off
	d := lo - src.base
	same := src.code == seg.Stamp() && src.at == p.Off
	if src != e {
		e.ins = append(e.ins[:0], src.ins...)
	}
	ins := e.ins
	e.pc, e.base, e.at, e.code, e.key, e.sited = src.pc+d, lo, p.Off, seg.Stamp(), p.Key, src.sited
	for i := range ins {
		ins[i].PC += d
	}
	if same {
		return true
	}
	for m := e.sited; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		b := &ins[i]
		fx, _, next, ok := c.mach.DecodeAt(b.PC, &c.in)
		var prev uint8
		if i > 0 {
			prev = ins[i-1].Fx
		}
		if !ok || prev|fx != b.Fx {
			return false
		}
		stop := b.Fx&FxEnd != 0 || fx&FxJump != 0 && Holds(ins[:i+1], next)
		if i+1 < len(ins) && (stop || next != ins[i+1].PC) ||
			i+1 == len(ins) && !stop && len(ins) < MaxBlockInstrs {
			return false
		}
		b.In = c.in
	}
	return true
}

// watch feeds the cycle detector the entry at pc of the block ins, and
// fast-forwards the dispatch when the state repeats. The block entered
// before it is judged on the path it ran: its effects at the count of
// instructions it retired. A proof leaves less than one period of budget,
// so it cannot fire twice in a dispatch.
func (c *Core[I, S]) watch(pc uint32, ins []BlockInstr[I]) {
	d := &c.d
	if c.impure == 0 { // the detector wakes
		c.impure = FxStore
		if c.hooks != nil || c.rec != nil {
			c.impure |= FxCtl
		}
		d.lam, d.power = 0, 0
	} else if c.last[c.icount-c.lastAt-1].Fx&c.impure != 0 {
		d.lam, d.power = 0, 0 // disarm
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
	c.last, c.lastAt = ins, c.icount
}
