package arms

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"connlab/internal/isa"
	"connlab/internal/mem"
	"connlab/internal/telemetry"
)

// movR0 assembles movw r0, #v — the probe instruction of the
// cache-safety tests.
func movR0(t *testing.T, v uint16) []byte {
	t.Helper()
	code, err := NewAsm().MovW(R0, v).Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return code.Bytes
}

// stepRetired single-steps and fails the test on any non-retired event.
func stepRetired(t *testing.T, c *CPU) {
	t.Helper()
	if ev := c.Step(); ev.Kind != isa.EventRetired {
		t.Fatalf("step: %+v", ev)
	}
}

// blockRetired dispatches one block and fails the test on any non-retired
// event, returning the number of instructions it retired.
func blockRetired(t *testing.T, c *CPU, max uint64) uint64 {
	t.Helper()
	before := c.InstrCount()
	if ev := c.StepBlock(max); ev.Kind != isa.EventRetired {
		t.Fatalf("step block: %+v", ev)
	}
	return c.InstrCount() - before
}

// The cache-safety tests run under both executors, as in the x86s twin:
// StepBlock, whose translations must die with the memory generation, and
// Step, the reference interpreter. The Step entry points keep their
// TestDecodeCache* names, which predate the removal of the
// per-instruction decode cache, so the suite's test names stay stable.

// exec runs n instructions from the current PC through one StepBlock
// dispatch (block) or n Steps, stopping at the first non-retired event,
// and returns the last event.
func exec(c *CPU, block bool, n uint64) isa.Event {
	if block {
		return c.StepBlock(n)
	}
	var ev isa.Event
	for i := uint64(0); i < n; i++ {
		if ev = c.Step(); ev.Kind != isa.EventRetired {
			break
		}
	}
	return ev
}

// execRetired is exec that fails the test on any non-retired event.
func execRetired(t *testing.T, c *CPU, block bool, n uint64) {
	t.Helper()
	if ev := exec(c, block, n); ev.Kind != isa.EventRetired {
		t.Fatalf("exec (block=%v): %+v", block, ev)
	}
}

// TestBlockCacheInvalidatedBySetPerm: after the RW→write→RX patch cycle,
// block dispatch must execute the new word, not replay the cached
// translation.
func TestBlockCacheInvalidatedBySetPerm(t *testing.T) { checkInvalidatedBySetPerm(t, true) }

// TestDecodeCacheInvalidatedBySetPerm is the Step input of the twin above.
func TestDecodeCacheInvalidatedBySetPerm(t *testing.T) { checkInvalidatedBySetPerm(t, false) }

func checkInvalidatedBySetPerm(t *testing.T, block bool) {
	m := mem.New()
	text, err := m.Map("text", 0x1000, 0x1000, mem.PermRX)
	if err != nil {
		t.Fatal(err)
	}
	code, err := NewAsm().MovW(R0, 1).Nop().Assemble()
	if err != nil {
		t.Fatal(err)
	}
	copy(text.Data, code.Bytes)
	c := New(m)

	for i := 0; i < 2; i++ {
		c.SetPC(0x1000)
		execRetired(t, c, block, 2)
		if got := c.Reg(R0); got != 1 {
			t.Fatalf("r0 = %d, want 1 (iteration %d)", got, i)
		}
	}
	if bs := c.BlockStats(); block && (bs.Translated == 0 || bs.Hits == 0) {
		t.Fatalf("block cache never engaged: %+v", bs)
	}

	if err := m.SetPerm("text", mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if f := m.WriteBytes(0x1000, movR0(t, 2)); f != nil {
		t.Fatal(f)
	}
	if err := m.SetPerm("text", mem.PermRX); err != nil {
		t.Fatal(err)
	}

	c.SetPC(0x1000)
	execRetired(t, c, block, 2)
	if got := c.Reg(R0); got != 2 {
		t.Errorf("r0 after patch = %d, want 2 (stale block translation)", got)
	}
	if bs := c.BlockStats(); block && bs.Invalidated == 0 {
		t.Errorf("no invalidation recorded across the patch: %+v", bs)
	}
}

// TestBlockCacheInvalidatedByUnmap: a cached block must not execute from
// a segment that has since been unmapped.
func TestBlockCacheInvalidatedByUnmap(t *testing.T) { checkInvalidatedByUnmap(t, true) }

// TestDecodeCacheInvalidatedByUnmap is the Step input of the twin above.
func TestDecodeCacheInvalidatedByUnmap(t *testing.T) { checkInvalidatedByUnmap(t, false) }

func checkInvalidatedByUnmap(t *testing.T, block bool) {
	m := mem.New()
	text, err := m.Map("text", 0x1000, 0x1000, mem.PermRX)
	if err != nil {
		t.Fatal(err)
	}
	copy(text.Data, movR0(t, 1))
	c := New(m)
	c.SetPC(0x1000)
	execRetired(t, c, block, 1)

	m.Unmap("text")
	c.SetPC(0x1000)
	ev := exec(c, block, 1)
	if ev.Kind != isa.EventFault || ev.Fault == nil || ev.Fault.Kind != mem.FaultUnmapped {
		t.Errorf("exec after unmap = %+v, want unmapped fault", ev)
	}
}

// TestBlockSkipsWritableSegments: writable code is never translated, so
// RWX self-modifying code runs through the single-step fallback and sees
// every store immediately.
func TestBlockSkipsWritableSegments(t *testing.T) { checkSkipsWritableSegments(t, true) }

// TestDecodeCacheSkipsWritableSegments is the Step input of the twin above.
func TestDecodeCacheSkipsWritableSegments(t *testing.T) { checkSkipsWritableSegments(t, false) }

func checkSkipsWritableSegments(t *testing.T, block bool) {
	m := mem.New()
	text, err := m.Map("text", 0x1000, 0x1000, mem.PermRWX)
	if err != nil {
		t.Fatal(err)
	}
	copy(text.Data, movR0(t, 1))
	c := New(m)
	c.SetPC(0x1000)
	execRetired(t, c, block, 1)
	if got := c.Reg(R0); got != 1 {
		t.Fatalf("r0 = %d, want 1", got)
	}
	if f := m.WriteBytes(0x1000, movR0(t, 2)); f != nil {
		t.Fatal(f)
	}
	c.SetPC(0x1000)
	execRetired(t, c, block, 1)
	if got := c.Reg(R0); got != 2 {
		t.Errorf("r0 after self-modify = %d, want 2 (writable segment was translated)", got)
	}
	if bs := c.BlockStats(); bs.Translated != 0 {
		t.Errorf("translated %d blocks from a writable segment, want 0", bs.Translated)
	}
}

// TestStepZeroAllocs asserts the arms hot loop allocates nothing per
// instruction.
func TestStepZeroAllocs(t *testing.T) {
	m := mem.New()
	text, err := m.Map("text", 0x1000, 0x1000, mem.PermRX)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("data", 0x4000, 0x1000, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("stack", 0x8000, 0x1000, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	a := NewAsm()
	a.Label("loop").
		Ldr(R0, R4, 0).
		AddI(R0, R0, 1).
		Str(R0, R4, 0).
		Push(R0, R1).
		Pop(R0, R1).
		BAlways("loop")
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	copy(text.Data, code.Bytes)
	c := New(m)
	c.SetPC(0x1000)
	c.SetSP(0x8F00)
	c.SetReg(R4, 0x4000)
	for i := 0; i < 64; i++ {
		stepRetired(t, c)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if ev := c.Step(); ev.Kind != isa.EventRetired {
			t.Fatalf("step: %+v", ev)
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %.1f objects per instruction, want 0", allocs)
	}
}

// TestBlockTruncatedByMax: a dispatch capped below the block length
// retires exactly the cap and resumes mid-block on the next dispatch.
func TestBlockTruncatedByMax(t *testing.T) {
	m := mem.New()
	text, err := m.Map("text", 0x1000, 0x1000, mem.PermRX)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("data", 0x4000, 0x1000, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("stack", 0x8000, 0x1000, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	a := NewAsm()
	a.Label("loop").
		Ldr(R0, R4, 0).
		AddI(R0, R0, 1).
		Str(R0, R4, 0).
		Push(R0, R1).
		Pop(R0, R1).
		BAlways("loop")
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	copy(text.Data, code.Bytes)
	c := New(m)
	c.SetPC(0x1000)
	c.SetSP(0x8F00)
	c.SetReg(R4, 0x4000)

	if got := blockRetired(t, c, 2); got != 2 {
		t.Fatalf("capped dispatch retired %d, want 2", got)
	}
	if c.PC() != 0x1008 {
		t.Fatalf("pc = %#x after truncated dispatch, want 0x1008", c.PC())
	}
	if got := blockRetired(t, c, 4); got != 4 {
		t.Fatalf("resume dispatch retired %d, want 4 (rest of the loop body)", got)
	}
	if c.PC() != 0x1000 {
		t.Fatalf("pc = %#x after full loop, want 0x1000", c.PC())
	}
	if got := c.Reg(R0); got != 1 {
		t.Fatalf("r0 = %d, want 1", got)
	}
}

// TestBlockCrossSegmentPatch is the cross-page invalidation case for the
// fixed-width ISA: a block whose straight-line run crosses into a second
// executable segment must be retranslated after that segment goes
// through a patch cycle, and while the second segment is writable,
// translation must stop at the boundary and execution must fault on
// entering it.
func TestBlockCrossSegmentPatch(t *testing.T) {
	m := mem.New()
	t1, err := m.Map("text1", 0x1000, 0x8, mem.PermRX)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := m.Map("text2", 0x1008, 0x8, mem.PermRX)
	if err != nil {
		t.Fatal(err)
	}
	head, err := NewAsm().MovW(R0, 1).MovW(R1, 1).Assemble()
	if err != nil {
		t.Fatal(err)
	}
	copy(t1.Data, head.Bytes)
	copy(t2.Data, movR0(t, 2))
	c := New(m)

	run := func(how string, step func() uint64) uint32 {
		c.SetPC(0x1000)
		if got := step(); got != 3 {
			t.Fatalf("%s: retired %d, want 3", how, got)
		}
		return c.Reg(R0)
	}
	viaStep := func() uint64 {
		for i := 0; i < 3; i++ {
			stepRetired(t, c)
		}
		return 3
	}
	viaBlock := func() uint64 { return blockRetired(t, c, 3) }

	if got := run("step", viaStep); got != 2 {
		t.Fatalf("r0 = %d, want 2", got)
	}
	if got := run("block", viaBlock); got != 2 {
		t.Fatalf("r0 = %d, want 2", got)
	}

	if err := m.SetPerm("text2", mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c.SetPC(0x1000)
	if got := blockRetired(t, c, 3); got != 2 {
		t.Fatalf("block into writable segment retired %d, want 2", got)
	}
	if ev := c.Step(); ev.Kind != isa.EventFault || ev.Fault == nil || ev.Fault.Kind != mem.FaultProtection {
		t.Fatalf("exec from RW segment = %+v, want protection fault", ev)
	}
	if f := m.WriteBytes(0x1008, movR0(t, 3)); f != nil {
		t.Fatal(f)
	}
	if err := m.SetPerm("text2", mem.PermRX); err != nil {
		t.Fatal(err)
	}

	if got := run("step after patch", viaStep); got != 3 {
		t.Errorf("r0 = %d, want 3 (stale decode across segments)", got)
	}
	if got := run("block after patch", viaBlock); got != 3 {
		t.Errorf("r0 = %d, want 3 (stale block translation across segments)", got)
	}
}

// TestBlockExecZeroAllocs asserts block dispatch allocates nothing once
// the translation is cached, with and without a flight recorder (which
// block dispatch notifies from the block terminators).
func TestBlockExecZeroAllocs(t *testing.T) {
	build := func() *CPU {
		m := mem.New()
		text, err := m.Map("text", 0x1000, 0x1000, mem.PermRX)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Map("data", 0x4000, 0x1000, mem.PermRW); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Map("stack", 0x8000, 0x1000, mem.PermRW); err != nil {
			t.Fatal(err)
		}
		a := NewAsm()
		a.Label("loop").
			Ldr(R0, R4, 0).
			AddI(R0, R0, 1).
			Str(R0, R4, 0).
			Push(R0, R1).
			Pop(R0, R1).
			BAlways("loop")
		code, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		copy(text.Data, code.Bytes)
		c := New(m)
		c.SetPC(0x1000)
		c.SetSP(0x8F00)
		c.SetReg(R4, 0x4000)
		return c
	}

	// The program loops forever, so cap each dispatch at one loop
	// iteration (chained dispatch would otherwise run to the cap).
	c := build()
	for i := 0; i < 8; i++ {
		blockRetired(t, c, 6)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if ev := c.StepBlock(6); ev.Kind != isa.EventRetired {
			t.Fatalf("step block: %+v", ev)
		}
	})
	if allocs != 0 {
		t.Errorf("StepBlock allocates %.1f objects per dispatch, want 0", allocs)
	}

	c = build()
	c.SetRecorder(telemetry.NewControlRecorder(64))
	for i := 0; i < 8; i++ {
		blockRetired(t, c, 6)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		if ev := c.StepBlock(6); ev.Kind != isa.EventRetired {
			t.Fatalf("step block: %+v", ev)
		}
	})
	if allocs != 0 {
		t.Errorf("StepBlock with recorder allocates %.1f objects per dispatch, want 0", allocs)
	}
	if bs := c.BlockStats(); bs.Instrs == 0 {
		t.Errorf("recorder-on dispatch retired no instructions in blocks, want > 0")
	}
}

// vetoHook is the fuzzers' deterministic stand-in for the CFI shadow
// stack: calls push their return address, a return to anything but the
// top entry is vetoed (an empty stack lets it through, so fuzzed code
// keeps running), and an indirect jump is vetoed when bit 2 of its
// target is set. Each executor gets its own instance.
type vetoHook struct{ stack []uint32 }

func (h *vetoHook) OnControl(kind isa.ControlKind, from, to, ret uint32) error {
	switch kind {
	case isa.ControlCall:
		h.stack = append(h.stack, ret)
	case isa.ControlReturn:
		n := len(h.stack)
		if n == 0 {
			return nil
		}
		if h.stack[n-1] != to {
			return fmt.Errorf("veto return %#x -> %#x, want %#x", from, to, h.stack[n-1])
		}
		h.stack = h.stack[:n-1]
	case isa.ControlJump:
		if to&4 != 0 {
			return fmt.Errorf("veto jump %#x -> %#x", from, to)
		}
	}
	return nil
}

// FuzzBlockStep is the arms differential fuzz target: arbitrary code
// words and entry registers run in lockstep under block dispatch and
// single-step, and every divergence in events, registers, flags,
// retirement counts or the stack's bytes and dirty range is a failure; a
// second phase patches the code through the RW→write→RX cycle and reruns
// to catch stale translations on fuzzer-found inputs.
// In hooked mode both sides carry a vetoHook and a flight recorder, so
// CFI events raised inside execBlock are fuzzed against Step as well.
func FuzzBlockStep(f *testing.F) {
	add := func(build func(a *Asm) *Asm, patch []byte, r0, r1 uint32, hooked bool) {
		code, err := build(NewAsm()).Assemble()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(code.Bytes, patch, r0, r1, hooked)
	}
	add(func(a *Asm) *Asm { return a.MovW(R0, 7).BX(LR) }, []byte{}, 0, 0, false)
	add(func(a *Asm) *Asm { return a.Push(R0, R1).Pop(R2, R3).Svc(1) }, []byte{1, 2, 3, 4}, 1, 2, false)
	add(func(a *Asm) *Asm { return a.Label("l").AddI(R0, R0, 1).BAlways("l") }, []byte{}, 3, 4, false)
	// Hooked: a bl into a function returning through pop {pc}, a bx lr
	// to a clobbered link register (vetoed), and blx/mov pc targets with
	// bit 2 set (vetoed jumps) around an svc.
	add(func(a *Asm) *Asm {
		return a.BL("fn").Svc(0).Label("fn").Push(LR).Pop(PC)
	}, []byte{}, 0, 0, true)
	add(func(a *Asm) *Asm { return a.BL("fn").Label("fn").MovW(LR, 4).BX(LR) }, []byte{}, 1, 2, true)
	add(func(a *Asm) *Asm { return a.Svc(1).MovR(PC, R0) }, []byte{}, 0x10004, 0, true)
	// Store-free backward branches, so dispatch proves the hang and
	// fast-forwards: b ., a two-block loop, a loop that only reads, and
	// a bl/bx lr loop (pure unhooked, impure hooked).
	add(func(a *Asm) *Asm { return a.Label("l").BAlways("l") }, []byte{}, 0, 0, false)
	add(func(a *Asm) *Asm {
		return a.Label("l").MovW(R0, 5).BAlways("m").Label("m").CmpI(R0, 5).B(CondEQ, "l")
	}, []byte{}, 0, 0, false)
	add(func(a *Asm) *Asm { return a.Label("l").Ldr(R2, SP, 0).AddI(R3, R2, 1).BAlways("l") }, []byte{}, 0, 0, false)
	callLoop := func(a *Asm) *Asm { return a.Label("l").BLLabel("f").BAlways("l").Label("f").BX(LR) }
	add(callLoop, []byte{}, 0, 0, false)
	add(callLoop, []byte{}, 0, 0, true)
	// The counted byte-copy loop, which dispatch retires a whole run of
	// passes of at once, over two words of r1 stored below the copy:
	// overlapping forward (the destination trails the source by 3) for r0
	// bytes, and backward into the stack's end (a read fault), plain and
	// hooked.
	copyLoop := func(src, dst int32) func(a *Asm) *Asm {
		return func(a *Asm) *Asm {
			return a.Str(R1, SP, 8).Str(R1, SP, 12).AddI(R4, SP, src).AddI(R5, SP, dst).
				Label("l").CmpI(R0, 0).B(CondEQ, "d").Ldrb(R6, R4, 0).Strb(R6, R5, 0).
				AddI(R5, R5, 1).AddI(R4, R4, 1).SubI(R0, R0, 1).BAlways("l").
				Label("d").BX(LR)
		}
	}
	add(copyLoop(8, 11), []byte{}, 13, 0x04030201, false)
	add(copyLoop(8, 11), []byte{}, 40, 0x04030201, false)
	add(copyLoop(8, 11), []byte{}, 40, 0x04030201, true)
	add(copyLoop(16, 8), []byte{}, 0x1100, 0x04030201, false)
	add(copyLoop(16, 8), []byte{}, 0xFFFFFFFF, 0x04030201, true)
	f.Fuzz(func(t *testing.T, code, patch []byte, r0, r1 uint32, hooked bool) {
		if len(code) == 0 {
			return
		}
		if len(code) > 1024 {
			code = code[:1024]
		}
		if len(patch) > len(code) {
			patch = patch[:len(code)]
		}
		const codeBase, stackBase = 0x00010000, 0xBFFF0000
		build := func() *CPU {
			m := mem.New()
			text, err := m.Map("code", codeBase, uint32(len(code)), mem.PermRX)
			if err != nil {
				t.Fatalf("map code: %v", err)
			}
			text.Populate(0, code)
			if _, err := m.Map("stack", stackBase, 0x2000, mem.PermRW); err != nil {
				t.Fatalf("map stack: %v", err)
			}
			c := New(m)
			c.SetPC(codeBase)
			c.SetSP(stackBase + 0x1000)
			c.SetReg(R0, r0)
			c.SetReg(R1, r1)
			return c
		}
		ref, blk := build(), build()
		var refRec, blkRec *telemetry.ControlRecorder
		if hooked {
			refRec, blkRec = telemetry.NewControlRecorder(64), telemetry.NewControlRecorder(64)
			ref.SetHooks(&vetoHook{})
			blk.SetHooks(&vetoHook{})
			ref.SetRecorder(refRec)
			blk.SetRecorder(blkRec)
		}
		lockstep := func(dispatches int) {
			// Finite caps: dispatch chains blocks up to the cap, so an
			// unbounded cap on a fuzzer-found infinite loop would spin.
			caps := []uint64{97, 1, 61, 3}
			for i := 0; i < dispatches; i++ {
				before := blk.InstrCount()
				evB := blk.StepBlock(caps[i%len(caps)])
				k := blk.InstrCount() - before
				steps := k
				if evB.Kind == isa.EventFault || evB.Kind == isa.EventCFIViolation {
					steps = k + 1
				}
				var evR isa.Event
				for j := uint64(0); j < steps; j++ {
					evR = ref.Step()
				}
				if evR.Kind != evB.Kind || evR.PC != evB.PC || evR.Illegal != evB.Illegal || evR.Reason != evB.Reason {
					t.Fatalf("event mismatch: single-step %+v, block %+v", evR, evB)
				}
				if refRec.Total() != blkRec.Total() || !reflect.DeepEqual(refRec.Events(), blkRec.Events()) {
					t.Fatalf("recorder mismatch: single-step %d %+v, block %d %+v",
						refRec.Total(), refRec.Events(), blkRec.Total(), blkRec.Events())
				}
				if ref.PC() != blk.PC() || ref.FlagWord() != blk.FlagWord() || ref.InstrCount() != blk.InstrCount() {
					t.Fatalf("state mismatch at pc %#x: flags %x/%x icount %d/%d",
						blk.PC(), ref.FlagWord(), blk.FlagWord(), ref.InstrCount(), blk.InstrCount())
				}
				for r := 0; r < numRegs; r++ {
					if ref.Reg(r) != blk.Reg(r) {
						t.Fatalf("reg %s mismatch: %#x vs %#x", RegName(r), ref.Reg(r), blk.Reg(r))
					}
				}
				rs, bs := ref.Mem().Segment("stack"), blk.Mem().Segment("stack")
				rlo, rhi := rs.DirtyRange()
				if blo, bhi := bs.DirtyRange(); rlo != blo || rhi != bhi || !bytes.Equal(rs.Data, bs.Data) {
					t.Fatalf("stack mismatch: dirty [%#x,%#x) vs [%#x,%#x), bytes equal %v",
						rlo, rhi, blo, bhi, bytes.Equal(rs.Data, bs.Data))
				}
				if evB.Kind == isa.EventFault || evB.Kind == isa.EventCFIViolation {
					return
				}
			}
		}
		lockstep(96)

		if len(patch) > 0 {
			for _, c := range []*CPU{ref, blk} {
				m := c.Mem()
				if err := m.SetPerm("code", mem.PermRW); err != nil {
					t.Fatal(err)
				}
				if fa := m.WriteBytes(codeBase, patch); fa != nil {
					t.Fatal(fa)
				}
				if err := m.SetPerm("code", mem.PermRX); err != nil {
					t.Fatal(err)
				}
				c.SetPC(codeBase)
				c.SetSP(stackBase + 0x1000)
			}
			lockstep(96)
		}
	})
}
