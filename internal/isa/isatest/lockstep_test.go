package isatest

import (
	"math/rand"
	"testing"

	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
	"connlab/internal/mem"
)

// World layout shared by both executors of a differential pair. The
// sentinel is an unmapped address planted where the terminal control
// transfer lands (x86s: the return slot at the initial ESP; arms: LR),
// so programs that fall off the end fault identically on both sides.
const (
	codeBase  = 0x08048000
	dataBase  = 0x00200000
	dataSize  = 0x1000
	stackBase = 0x7FF00000
	stackSize = 0x4000
	spOff     = 0x3F00
	sentinel  = 0xEE000000
)

// buildX86 constructs one x86s world over a fresh address space. Both
// members of a differential pair call it with identical arguments, which
// makes the memories byte- and watermark-identical by construction (a
// Clone would reset the dirty watermarks and break the per-dispatch
// dirty-range comparison).
func buildX86(t testing.TB, code []byte, init []uint32) *x86s.CPU {
	t.Helper()
	m := mem.New()
	text, err := m.Map("text", codeBase, uint32(len(code)), mem.PermRX)
	if err != nil {
		t.Fatalf("map text: %v", err)
	}
	text.Populate(0, code)
	if _, err := m.Map("data", dataBase, dataSize, mem.PermRW); err != nil {
		t.Fatalf("map data: %v", err)
	}
	if _, err := m.Map("stack", stackBase, stackSize, mem.PermRW); err != nil {
		t.Fatalf("map stack: %v", err)
	}
	c := x86s.New(m)
	c.SetPC(codeBase)
	for i, v := range init {
		c.SetReg(i, v)
	}
	c.SetReg(x86s.EBX, dataBase)
	c.SetSP(stackBase + spOff)
	if f := m.WriteU32(c.SP(), sentinel); f != nil {
		t.Fatalf("plant sentinel: %v", f)
	}
	return c
}

// buildARMS is buildX86 for the arms world.
func buildARMS(t testing.TB, code []byte, init []uint32) *arms.CPU {
	t.Helper()
	m := mem.New()
	text, err := m.Map("text", codeBase, uint32(len(code)), mem.PermRX)
	if err != nil {
		t.Fatalf("map text: %v", err)
	}
	text.Populate(0, code)
	if _, err := m.Map("data", dataBase, dataSize, mem.PermRW); err != nil {
		t.Fatalf("map data: %v", err)
	}
	if _, err := m.Map("stack", stackBase, stackSize, mem.PermRW); err != nil {
		t.Fatalf("map stack: %v", err)
	}
	c := arms.New(m)
	c.SetPC(codeBase)
	for i, v := range init {
		c.SetReg(i, v)
	}
	c.SetReg(arms.R10, dataBase)
	c.SetReg(arms.LR, sentinel)
	c.SetSP(stackBase + spOff)
	return c
}

// lockstepTarget is the number of randomized instructions each ISA must
// retire under the differential harness. The ISSUE floor is 10⁶ across
// both ISAs; each retires well past half of that. Short mode (the -race
// CI leg) trims the target, not the per-program depth.
func lockstepTarget(t *testing.T) uint64 {
	if testing.Short() {
		return 100_000
	}
	return 600_000
}

// maxPrograms bounds the generation loop if programs keep faulting early.
const maxPrograms = 400

// perProgram is the instruction budget of one generated program; loops
// run until it expires, early faults terminate sooner.
const perProgram = 20_000

func TestLockstepRandomX86S(t *testing.T) {
	target := lockstepTarget(t)
	rng := rand.New(rand.NewSource(0x6001))
	var total, blockInstrs uint64
	for i := 0; i < maxPrograms && total < target; i++ {
		code, err := GenX86(rng, 200)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		var init []uint32
		for r := 0; r < 8; r++ {
			init = append(init, rng.Uint32())
		}
		ref := buildX86(t, code, init)
		blk := buildX86(t, code, init)
		total += Lockstep(t, ref, blk, perProgram, nil)
		blockInstrs += blk.BlockStats().Instrs
	}
	if total < target {
		t.Fatalf("retired %d randomized instructions, want >= %d", total, target)
	}
	if blockInstrs == 0 {
		t.Fatalf("block dispatch never engaged (%d instructions all single-stepped)", total)
	}
	t.Logf("x86s: %d instructions retired, %d inside blocks", total, blockInstrs)
}

func TestLockstepRandomARMS(t *testing.T) {
	target := lockstepTarget(t)
	rng := rand.New(rand.NewSource(0x6002))
	var total, blockInstrs uint64
	for i := 0; i < maxPrograms && total < target; i++ {
		code, err := GenARMS(rng, 200)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		var init []uint32
		for r := 0; r < 13; r++ { // r0..r12; sp/lr/pc set by the builder
			init = append(init, rng.Uint32())
		}
		ref := buildARMS(t, code, init)
		blk := buildARMS(t, code, init)
		total += Lockstep(t, ref, blk, perProgram, nil)
		blockInstrs += blk.BlockStats().Instrs
	}
	if total < target {
		t.Fatalf("retired %d randomized instructions, want >= %d", total, target)
	}
	if blockInstrs == 0 {
		t.Fatalf("block dispatch never engaged (%d instructions all single-stepped)", total)
	}
	t.Logf("arms: %d instructions retired, %d inside blocks", total, blockInstrs)
}

// TestLockstepCapOne runs a pair entirely at cap 1 — every dispatch is a
// single-instruction block truncation, the finest comparison granularity
// the harness supports.
func TestLockstepCapOne(t *testing.T) {
	rng := rand.New(rand.NewSource(0x6003))
	code, err := GenX86(rng, 120)
	if err != nil {
		t.Fatal(err)
	}
	var init []uint32
	for r := 0; r < 8; r++ {
		init = append(init, rng.Uint32())
	}
	ref := buildX86(t, code, init)
	blk := buildX86(t, code, init)
	Lockstep(t, ref, blk, 5_000, []uint64{1})

	rng = rand.New(rand.NewSource(0x6004))
	acode, err := GenARMS(rng, 120)
	if err != nil {
		t.Fatal(err)
	}
	init = init[:0]
	for r := 0; r < 13; r++ {
		init = append(init, rng.Uint32())
	}
	aref := buildARMS(t, acode, init)
	ablk := buildARMS(t, acode, init)
	Lockstep(t, aref, ablk, 5_000, []uint64{1})
}

// TestLockstepFastForward runs store-free backward-branch programs — a
// counted loop that exits, then a two-block loop that never does — so
// block dispatch proves the hang and fast-forwards it, dispatch after
// dispatch, under caps that make each skip land at a different offset
// into the period. The reference single-steps every skipped instruction
// and the harness compares as usual.
func TestLockstepFastForward(t *testing.T) {
	caps := []uint64{500, 1, 77, 3, 1000}
	a := x86s.NewAsm()
	a.MovRI(x86s.ECX, 50).
		Label("count").DecR(x86s.ECX).Jcc(x86s.CondNE, "count").
		Label("a").MovRM(x86s.EAX, x86s.EBX, 0).AddRI(x86s.EAX, 3).Jmp("b").
		Label("b").CmpRR(x86s.EAX, x86s.ECX).Jcc(x86s.CondNE, "a").
		Ret()
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ref, blk := buildX86(t, code.Bytes, nil), buildX86(t, code.Bytes, nil)
	Lockstep(t, ref, blk, 20_000, caps)
	if bs := blk.BlockStats(); bs.Hangs < 2 || bs.Skipped == 0 {
		t.Errorf("x86s: %d hangs proven, %d instructions skipped; want several and > 0", bs.Hangs, bs.Skipped)
	}

	b := arms.NewAsm()
	b.MovW(arms.R0, 50).
		Label("count").SubI(arms.R0, arms.R0, 1).CmpI(arms.R0, 0).B(arms.CondNE, "count").
		Label("a").Ldr(arms.R2, arms.R10, 0).AddI(arms.R1, arms.R2, 3).BAlways("b").
		Label("b").CmpR(arms.R1, arms.R0).B(arms.CondNE, "a").
		BX(arms.LR)
	acode, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	aref, ablk := buildARMS(t, acode.Bytes, nil), buildARMS(t, acode.Bytes, nil)
	Lockstep(t, aref, ablk, 20_000, caps)
	if bs := ablk.BlockStats(); bs.Hangs < 2 || bs.Skipped == 0 {
		t.Errorf("arms: %d hangs proven, %d instructions skipped; want several and > 0", bs.Hangs, bs.Skipped)
	}
}

// TestLockstepSelfModifyInvalidation pins the W⊕X invalidation path at
// the harness level: run a loop hot under block dispatch, flip the text
// segment writable, patch an instruction, flip it back, and require both
// executors to observe the new semantics (the subject must invalidate
// its cached translation via the generation fence, not replay it).
func TestLockstepSelfModifyInvalidation(t *testing.T) {
	build := func() *x86s.CPU {
		a := x86s.NewAsm()
		a.Label("loop").
			AddRI(x86s.EAX, 1).
			MovMR(x86s.EBX, 0, x86s.EAX).
			Jmp("loop")
		code, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		return buildX86(t, code.Bytes, nil)
	}
	ref, blk := build(), build()
	Lockstep(t, ref, blk, 999, nil) // prime the translation cache hot

	// add eax,1 (83 C0 01) -> add eax,5 on both worlds.
	for _, c := range []*x86s.CPU{ref, blk} {
		m := c.Mem()
		if err := m.SetPerm("text", mem.PermRW); err != nil {
			t.Fatal(err)
		}
		if f := m.WriteBytes(codeBase+2, []byte{5}); f != nil {
			t.Fatalf("patch: %v", f)
		}
		if err := m.SetPerm("text", mem.PermRX); err != nil {
			t.Fatal(err)
		}
	}
	before := ref.Reg(x86s.EAX)
	Lockstep(t, ref, blk, 300, nil)
	// 300 more instructions = 100 loop iterations at stride 5.
	if got := ref.Reg(x86s.EAX) - before; got != 500 {
		t.Fatalf("eax advanced by %d after patch, want 500 (stale translation replayed?)", got)
	}
	if inv := blk.BlockStats().Invalidated; inv == 0 {
		t.Fatalf("no block invalidation recorded across the patch")
	}
}

// TestLockstepEventStream spot-checks that the harness itself notices
// syscall and fault events symmetrically: a program that raises int 0x80
// then loads through an unmapped pointer must produce the same event
// stream from both executors (the Lockstep call fails otherwise).
func TestLockstepEventStream(t *testing.T) {
	a := x86s.NewAsm()
	a.MovRI(x86s.EAX, 1).
		IntN(0x80).
		MovRI(x86s.ESI, 0x00000044). // unmapped
		MovRM(x86s.EDX, x86s.ESI, 0)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ref := buildX86(t, code.Bytes, nil)
	blk := buildX86(t, code.Bytes, nil)
	retired := Lockstep(t, ref, blk, 100, nil)
	if retired != 3 {
		t.Fatalf("retired %d instructions, want 3 (mov, int, mov; load faults)", retired)
	}

	b := arms.NewAsm()
	b.MovImm32(arms.R7, 1).
		Svc(0).
		MovImm32(arms.R4, 0x00000044).
		Ldr(arms.R0, arms.R4, 0)
	acode, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	aref := buildARMS(t, acode.Bytes, nil)
	ablk := buildARMS(t, acode.Bytes, nil)
	retired = Lockstep(t, aref, ablk, 100, nil)
	if retired != 5 {
		t.Fatalf("retired %d instructions, want 5 (movw/movt, svc, movw/movt; ldr faults)", retired)
	}
}

var _ isa.CPU = (*x86s.CPU)(nil)
