package x86s

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"connlab/internal/isa"
	"connlab/internal/mem"
	"connlab/internal/telemetry"
)

// movEAX encodes mov eax, imm32 (5 bytes), the probe instruction of the
// cache-safety tests: its immediate makes stale decodes observable.
func movEAX(v uint32) []byte {
	return []byte{0xB8, byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
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

// The cache-safety tests run under both executors: StepBlock, whose
// translations must die with the memory generation, and Step, the
// reference interpreter, which must see the same bytes and faults. The
// Step entry points keep their TestDecodeCache* names, which predate the
// removal of the per-instruction decode cache, so the suite's test names
// stay stable.

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

// TestBlockCacheInvalidatedBySetPerm pins the translation-cache safety
// contract: after the legitimate patch sequence (SetPerm RW, write,
// SetPerm RX) block dispatch must execute the new bytes, not replay the
// cached translation.
func TestBlockCacheInvalidatedBySetPerm(t *testing.T) { checkInvalidatedBySetPerm(t, true) }

// TestDecodeCacheInvalidatedBySetPerm is the Step input of the twin above.
func TestDecodeCacheInvalidatedBySetPerm(t *testing.T) { checkInvalidatedBySetPerm(t, false) }

func checkInvalidatedBySetPerm(t *testing.T, block bool) {
	m := mem.New()
	text, err := m.Map("text", 0x1000, 0x1000, mem.PermRX)
	if err != nil {
		t.Fatal(err)
	}
	copy(text.Data, append(movEAX(1), 0x90)) // mov eax,1; nop
	c := New(m)

	// Execute twice so the second block dispatch hits the cache.
	for i := 0; i < 2; i++ {
		c.SetPC(0x1000)
		execRetired(t, c, block, 2)
		if got := c.Reg(EAX); got != 1 {
			t.Fatalf("eax = %d, want 1 (iteration %d)", got, i)
		}
	}
	if bs := c.BlockStats(); block && (bs.Translated == 0 || bs.Hits == 0) {
		t.Fatalf("block cache never engaged: %+v", bs)
	}

	if err := m.SetPerm("text", mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if f := m.WriteBytes(0x1000, movEAX(2)); f != nil {
		t.Fatal(f)
	}
	if err := m.SetPerm("text", mem.PermRX); err != nil {
		t.Fatal(err)
	}

	c.SetPC(0x1000)
	execRetired(t, c, block, 2)
	if got := c.Reg(EAX); got != 2 {
		t.Errorf("eax after patch = %d, want 2 (stale block translation)", got)
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
	copy(text.Data, movEAX(1))
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

// TestBlockSkipsWritableSegments: writable code is never translated (its
// bytes can change without a generation bump), so RWX self-modifying
// code runs through the single-step fallback and sees every write.
func TestBlockSkipsWritableSegments(t *testing.T) { checkSkipsWritableSegments(t, true) }

// TestDecodeCacheSkipsWritableSegments is the Step input of the twin above.
func TestDecodeCacheSkipsWritableSegments(t *testing.T) { checkSkipsWritableSegments(t, false) }

func checkSkipsWritableSegments(t *testing.T, block bool) {
	m := mem.New()
	text, err := m.Map("text", 0x1000, 0x1000, mem.PermRWX)
	if err != nil {
		t.Fatal(err)
	}
	copy(text.Data, movEAX(1))
	c := New(m)
	c.SetPC(0x1000)
	execRetired(t, c, block, 1)
	if got := c.Reg(EAX); got != 1 {
		t.Fatalf("eax = %d, want 1", got)
	}
	// Plain store, no SetPerm, no generation bump: the new bytes must
	// still be decoded.
	if f := m.WriteBytes(0x1000, movEAX(2)); f != nil {
		t.Fatal(f)
	}
	c.SetPC(0x1000)
	execRetired(t, c, block, 1)
	if got := c.Reg(EAX); got != 2 {
		t.Errorf("eax after self-modify = %d, want 2 (writable segment was translated)", got)
	}
	if bs := c.BlockStats(); bs.Translated != 0 {
		t.Errorf("translated %d blocks from a writable segment, want 0", bs.Translated)
	}
}

// TestBlockRespectsWX: under W^X an RWX mapping is not executable; block
// dispatch must fault rather than run a translation, and must succeed
// once the mapping is flipped to RX.
func TestBlockRespectsWX(t *testing.T) { checkRespectsWX(t, true) }

// TestDecodeCacheRespectsWX is the Step input of the twin above.
func TestDecodeCacheRespectsWX(t *testing.T) { checkRespectsWX(t, false) }

func checkRespectsWX(t *testing.T, block bool) {
	m := mem.New()
	m.SetWX(true)
	text, err := m.Map("text", 0x1000, 0x1000, mem.PermRWX)
	if err != nil {
		t.Fatal(err)
	}
	copy(text.Data, movEAX(1))
	c := New(m)
	c.SetPC(0x1000)
	ev := exec(c, block, 1)
	if ev.Kind != isa.EventFault || ev.Fault == nil || ev.Fault.Kind != mem.FaultProtection {
		t.Fatalf("exec from RWX under W^X = %+v, want protection fault", ev)
	}

	if err := m.SetPerm("text", mem.PermRX); err != nil {
		t.Fatal(err)
	}
	c.SetPC(0x1000)
	execRetired(t, c, block, 1)
	if got := c.Reg(EAX); got != 1 {
		t.Errorf("eax = %d, want 1", got)
	}
}

// TestStepZeroAllocs asserts the interpreter hot loop allocates nothing
// per instruction.
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
		MovRM(EAX, EBX, 0).
		AddRI(EAX, 1).
		MovMR(EBX, 0, EAX).
		PushR(EAX).
		PopR(EDX).
		Jmp("loop")
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	copy(text.Data, code.Bytes)
	c := New(m)
	c.SetPC(0x1000)
	c.SetSP(0x8F00)
	c.SetReg(EBX, 0x4000)
	// Warm the segment hints.
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
// retires exactly the cap and leaves the PC mid-block, where the next
// dispatch resumes.
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
		MovRM(EAX, EBX, 0).
		AddRI(EAX, 1).
		MovMR(EBX, 0, EAX).
		PushR(EAX).
		PopR(EDX).
		Jmp("loop")
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	copy(text.Data, code.Bytes)
	c := New(m)
	c.SetPC(0x1000)
	c.SetSP(0x8F00)
	c.SetReg(EBX, 0x4000)

	if got := blockRetired(t, c, 2); got != 2 {
		t.Fatalf("capped dispatch retired %d, want 2", got)
	}
	if c.PC() == 0x1000 {
		t.Fatalf("pc still at block entry after truncated dispatch")
	}
	if got := blockRetired(t, c, 4); got != 4 {
		t.Fatalf("resume dispatch retired %d, want 4 (rest of the loop body)", got)
	}
	if c.PC() != 0x1000 {
		t.Fatalf("pc = %#x after full loop, want 0x1000", c.PC())
	}
	if got := c.Reg(EAX); got != 1 {
		t.Fatalf("eax = %d, want 1", got)
	}
}

// TestBlockCrossSegmentPatch is the cross-page invalidation case: an
// instruction whose fetch window spans the boundary into a second
// executable segment, run by Step and cached by the block translator,
// must be re-read after that second segment goes through a patch cycle —
// and while the second segment is writable, translation must stop at the
// boundary and execution must fault on entering it.
func TestBlockCrossSegmentPatch(t *testing.T) {
	m := mem.New()
	t1, err := m.Map("text1", 0x1000, 0x10, mem.PermRX)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := m.Map("text2", 0x1010, 0x10, mem.PermRX)
	if err != nil {
		t.Fatal(err)
	}
	// mov eax,1 at 0x100B: its 5 bytes end exactly at the text1 boundary,
	// so every fetch window for it is truncated at the segment edge.
	// Execution falls through into text2's mov eax,2.
	copy(t1.Data[0xB:], movEAX(1))
	copy(t2.Data, movEAX(2))
	c := New(m)

	run := func(how string, step func() uint64) uint32 {
		c.SetPC(0x100B)
		if got := step(); got != 2 {
			t.Fatalf("%s: retired %d, want 2", how, got)
		}
		return c.Reg(EAX)
	}
	viaStep := func() uint64 {
		stepRetired(t, c)
		stepRetired(t, c)
		return 2
	}
	viaBlock := func() uint64 { return blockRetired(t, c, 2) }

	// Run both executors across the boundary, warming the block cache.
	if got := run("step", viaStep); got != 2 {
		t.Fatalf("eax = %d, want 2", got)
	}
	if got := run("block", viaBlock); got != 2 {
		t.Fatalf("eax = %d, want 2", got)
	}

	// Patch cycle on the second segment only.
	if err := m.SetPerm("text2", mem.PermRW); err != nil {
		t.Fatal(err)
	}
	// While text2 is writable: the block from 0x100B must stop at the
	// boundary (1 instruction), and entering text2 must fault.
	c.SetPC(0x100B)
	if got := blockRetired(t, c, 2); got != 1 {
		t.Fatalf("block into writable segment retired %d, want 1", got)
	}
	if ev := c.Step(); ev.Kind != isa.EventFault || ev.Fault == nil || ev.Fault.Kind != mem.FaultProtection {
		t.Fatalf("exec from RW segment = %+v, want protection fault", ev)
	}
	if f := m.WriteBytes(0x1010, movEAX(3)); f != nil {
		t.Fatal(f)
	}
	if err := m.SetPerm("text2", mem.PermRX); err != nil {
		t.Fatal(err)
	}

	// Both paths must observe the patched second segment.
	if got := run("step after patch", viaStep); got != 3 {
		t.Errorf("eax = %d, want 3 (stale decode across segments)", got)
	}
	if got := run("block after patch", viaBlock); got != 3 {
		t.Errorf("eax = %d, want 3 (stale block translation across segments)", got)
	}
}

// TestBlockExecZeroAllocs asserts the block dispatch hot loop allocates
// nothing once the translation is cached, with and without a flight
// recorder (which block dispatch notifies from the block terminators).
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
			MovRM(EAX, EBX, 0).
			AddRI(EAX, 1).
			MovMR(EBX, 0, EAX).
			PushR(EAX).
			PopR(EDX).
			Jmp("loop")
		code, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		copy(text.Data, code.Bytes)
		c := New(m)
		c.SetPC(0x1000)
		c.SetSP(0x8F00)
		c.SetReg(EBX, 0x4000)
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

// FuzzBlockStep is the differential fuzz target: arbitrary code bytes and
// entry registers run in lockstep under block dispatch and single-step,
// and every divergence in events, registers, flags, retirement counts or
// the stack's bytes and dirty range is a failure. A second phase patches the code through the RW→write→RX
// cycle and reruns, so stale translations surviving a generation bump are
// caught on fuzzer-found inputs too. In hooked mode both sides carry a
// vetoHook and a flight recorder, so CFI events raised inside execBlock
// and the recorded control streams are fuzzed against Step as well.
func FuzzBlockStep(f *testing.F) {
	f.Add([]byte{0xC3}, []byte{0x90}, uint32(0), uint32(0), false)
	f.Add([]byte{0x58, 0x5B, 0xC3}, []byte{0x40}, uint32(1), uint32(2), false)
	f.Add([]byte{0x90, 0x90, 0xCD, 0x80}, []byte{0xB8, 7, 0, 0, 0}, uint32(3), uint32(4), false)
	f.Add([]byte{0xE8, 0x00, 0x00, 0x00, 0x00, 0xC3}, []byte{0xE9, 0xFB, 0xFF, 0xFF, 0xFF}, uint32(5), uint32(6), false)
	// Hooked: call/ret pairs that return cleanly, a ret popping a
	// mismatched address (vetoed), jmp eax to a vetoed target, and int.
	f.Add([]byte{0xE8, 0x01, 0x00, 0x00, 0x00, 0xC3, 0x58, 0x50, 0xC3}, []byte{0xC3}, uint32(0), uint32(0), true)
	f.Add([]byte{0xE8, 0x00, 0x00, 0x00, 0x00, 0x58, 0x40, 0x50, 0xC3}, []byte{}, uint32(1), uint32(2), true)
	f.Add([]byte{0x90, 0xCD, 0x80, 0xFF, 0xE0}, []byte{0x90}, uint32(0x08048004), uint32(0), true)
	// Store-free backward branches, so dispatch proves the hang and
	// fast-forwards: jmp ., a two-block loop, a loop that only reads, and
	// jmp eax to itself (pure unhooked, impure hooked).
	f.Add([]byte{0xEB, 0xFE}, []byte{}, uint32(0), uint32(0), false)
	for _, build := range []func(a *Asm){
		func(a *Asm) {
			a.Label("a").MovRI(EAX, 1).Jmp("b").Label("b").CmpRR(EAX, ECX).Jcc(CondNE, "a")
		},
		func(a *Asm) { a.Label("l").MovRM(EDX, ESP, 0).AddRI(EDX, 1).Jmp("l") },
	} {
		a := NewAsm()
		build(a)
		code, err := a.Assemble()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(code.Bytes, []byte{}, uint32(0), uint32(0), false)
	}
	f.Add([]byte{0xFF, 0xE0}, []byte{}, uint32(0x08048000), uint32(0), false)
	f.Add([]byte{0xFF, 0xE0}, []byte{}, uint32(0x08048000), uint32(0), true)
	// The counted byte-copy loop, which dispatch retires a whole run of
	// passes of at once, over two words of eax stored below the copy:
	// overlapping forward (edi trails esi by 3) for ecx bytes, and
	// backward into the stack's end (a read fault), plain and hooked.
	for _, c := range []struct {
		esi, edi int32
		ecx      uint32
		hooked   bool
	}{{8, 11, 13, false}, {8, 11, 40, false}, {8, 11, 40, true}, {16, 8, 0x1100, false}, {16, 8, 0xFFFFFFFF, true}} {
		a := NewAsm().MovMR(ESP, 8, EAX).MovMR(ESP, 12, EAX).Lea(ESI, ESP, c.esi).Lea(EDI, ESP, c.edi).
			Label("l").Jecxz("d").Movsb().DecR(ECX).Jmp("l").Label("d").Ret()
		code, err := a.Assemble()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(code.Bytes, []byte{}, uint32(0x04030201), c.ecx, c.hooked)
	}
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
		const codeBase, stackBase = 0x08048000, 0xBFFF0000
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
			c.SetReg(EAX, r0)
			c.SetReg(ECX, r1)
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

		// Patch cycle: stale translations must die with the generation.
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
