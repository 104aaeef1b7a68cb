package isatest

import (
	"fmt"
	"strings"
	"testing"

	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
)

// Superblock rows: each program runs under the lockstep harness against
// single-stepping. Conditional branches inside a block leave it when
// taken (a side exit), direct jumps are followed, and a block whose exit
// lands on its own entry runs again in place while the dispatch's watch
// point allows; these rows put each of those paths under dispatch caps
// that cut them at every offset.

// capsUpTo returns the single-cap cycles {1}, {2}, ..., {n}.
func capsUpTo(n int) [][]uint64 {
	caps := make([][]uint64, n)
	for i := range caps {
		caps[i] = []uint64{uint64(i + 1)}
	}
	return caps
}

// superblockCase is one program run on both ISAs' worlds.
type superblockCase struct {
	name  string
	build func(t *testing.T) (ref, blk isa.CPU)
}

func x86World(code func(a *x86s.Asm)) func(t *testing.T) (isa.CPU, isa.CPU) {
	return func(t *testing.T) (isa.CPU, isa.CPU) {
		t.Helper()
		a := x86s.NewAsm()
		code(a)
		c, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		return buildX86(t, c.Bytes, nil), buildX86(t, c.Bytes, nil)
	}
}

func armWorld(code func(a *arms.Asm)) func(t *testing.T) (isa.CPU, isa.CPU) {
	return func(t *testing.T) (isa.CPU, isa.CPU) {
		t.Helper()
		a := arms.NewAsm()
		code(a)
		c, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		return buildARMS(t, c.Bytes, nil), buildARMS(t, c.Bytes, nil)
	}
}

// copyLoops fills 30 bytes at data+0x100 with 0x5a and copies 40 bytes
// from there to data, with the replica libc's memset and memcpy loops.
// x86s: a 5-instruction memset and a 4-instruction memcpy self-loop.
var x86CopyLoops = x86World(func(a *x86s.Asm) {
	a.Lea(x86s.EDX, x86s.EBX, 0x100).MovRI(x86s.EAX, 0x5a).MovRI(x86s.ECX, 30).
		Label("set").Jecxz("setdone").MovMR8(x86s.EDX, 0, x86s.EAX).IncR(x86s.EDX).DecR(x86s.ECX).Jmp("set").
		Label("setdone").
		MovRR(x86s.EDI, x86s.EBX).Lea(x86s.ESI, x86s.EBX, 0x100).MovRI(x86s.ECX, 40).
		Label("cpy").Jecxz("done").Movsb().DecR(x86s.ECX).Jmp("cpy").
		Label("done").Ret()
})

// armCopyLoops is x86CopyLoops on arms: a 6-instruction memset and an
// 8-instruction memcpy self-loop.
var armCopyLoops = armWorld(func(a *arms.Asm) {
	a.AddI(arms.R0, arms.R10, 0x100).MovW(arms.R1, 0x5a).MovW(arms.R2, 30).
		Label("set").CmpI(arms.R2, 0).B(arms.CondEQ, "setdone").
		Strb(arms.R1, arms.R0, 0).AddI(arms.R0, arms.R0, 1).SubI(arms.R2, arms.R2, 1).BAlways("set").
		Label("setdone").
		MovR(arms.R0, arms.R10).AddI(arms.R1, arms.R10, 0x100).MovW(arms.R2, 40).
		Label("cpy").CmpI(arms.R2, 0).B(arms.CondEQ, "done").
		Ldrb(arms.R3, arms.R1, 0).Strb(arms.R3, arms.R0, 0).
		AddI(arms.R0, arms.R0, 1).AddI(arms.R1, arms.R1, 1).SubI(arms.R2, arms.R2, 1).BAlways("cpy").
		Label("done").BX(arms.LR)
})

// TestSuperblockSelfLoop runs the copy loops under every dispatch cap
// from 1 to three times the longer loop's length, so each in-place pass
// is cut at every offset and the watch point falls on every instruction
// of it, then unbounded, where the loops must run in place: a handful of
// dispatches for hundreds of instructions.
func TestSuperblockSelfLoop(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(t *testing.T) (isa.CPU, isa.CPU)
		loopLen int
	}{
		{"x86s", x86CopyLoops, 5},
		{"arms", armCopyLoops, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, caps := range capsUpTo(3 * tc.loopLen) {
				ref, blk := tc.build(t)
				Lockstep(t, ref, blk, 5_000, caps)
			}
			ref, blk := tc.build(t)
			n := Lockstep(t, ref, blk, 5_000, []uint64{NoCap})
			if bs := blk.BlockStats(); n < 300 || bs.Translated+bs.Hits > 10 {
				t.Errorf("%d instructions in %d translations and %d hits; want >= 300 in at most 10 dispatches",
					n, bs.Translated, bs.Hits)
			}
			got, f := blk.Mem().ReadBytes(dataBase, 40)
			if f != nil || string(got) != strings.Repeat("\x5a", 30)+strings.Repeat("\x00", 10) {
				t.Errorf("copied bytes %x (%v)", got, f)
			}
		})
	}
}

// TestSuperblockSideExit counts a register down from 9 through a block
// whose conditional branch in the middle is taken on odd counts only, so
// the same block leaves early on some passes and runs through on others,
// and whose later conditional branch back to its entry loops it in
// place.
func TestSuperblockSideExit(t *testing.T) {
	x86 := x86World(func(a *x86s.Asm) {
		a.MovRI(x86s.ECX, 9).
			Label("top").MovRR(x86s.EAX, x86s.ECX).AndRI(x86s.EAX, 1).DecR(x86s.ECX).
			Jcc(x86s.CondNE, "odd").
			AddRI(x86s.EDX, 3).
			Label("odd").AddRI(x86s.ESI, 1).
			CmpRI(x86s.ECX, 0).Jcc(x86s.CondE, "done").
			CmpRI(x86s.EAX, 0).Jcc(x86s.CondNE, "top").
			Jmp("top").
			Label("done").Ret()
	})
	arm := armWorld(func(a *arms.Asm) {
		a.MovW(arms.R2, 9).
			Label("top").AndI(arms.R0, arms.R2, 1).SubI(arms.R2, arms.R2, 1).
			CmpI(arms.R0, 0).B(arms.CondNE, "odd").
			AddI(arms.R3, arms.R3, 3).
			Label("odd").AddI(arms.R4, arms.R4, 1).
			CmpI(arms.R2, 0).B(arms.CondEQ, "done").
			CmpI(arms.R0, 0).B(arms.CondNE, "top").
			BAlways("top").
			Label("done").BX(arms.LR)
	})
	for _, tc := range []superblockCase{{"x86s", x86}, {"arms", arm}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, caps := range append(capsUpTo(24), nil, []uint64{NoCap}) {
				ref, blk := tc.build(t)
				Lockstep(t, ref, blk, 5_000, caps)
			}
		})
	}
}

// TestSuperblockFollowedJumps runs a chain of direct jumps laid out out
// of order, which translation follows into one block, then a backward
// jump into the middle of that chain, which ends the block because its
// target is already in it.
func TestSuperblockFollowedJumps(t *testing.T) {
	x86 := x86World(func(a *x86s.Asm) {
		a.MovRI(x86s.ECX, 4).Jmp("a").
			Label("c").AddRI(x86s.EAX, 3).Jmp("d").
			Label("b").AddRI(x86s.EAX, 2).Jmp("c").
			Label("a").AddRI(x86s.EAX, 1).Jmp("b").
			Label("d").DecR(x86s.ECX).Jcc(x86s.CondE, "done").Jmp("c").
			Label("done").Ret()
	})
	arm := armWorld(func(a *arms.Asm) {
		a.MovW(arms.R2, 4).BAlways("a").
			Label("c").AddI(arms.R0, arms.R0, 3).BAlways("d").
			Label("b").AddI(arms.R0, arms.R0, 2).BAlways("c").
			Label("a").AddI(arms.R0, arms.R0, 1).BAlways("b").
			Label("d").SubI(arms.R2, arms.R2, 1).CmpI(arms.R2, 0).B(arms.CondEQ, "done").BAlways("c").
			Label("done").BX(arms.LR)
	})
	for _, tc := range []superblockCase{{"x86s", x86}, {"arms", arm}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, caps := range append(capsUpTo(30), nil, []uint64{NoCap}) {
				ref, blk := tc.build(t)
				Lockstep(t, ref, blk, 5_000, caps)
			}
		})
	}
}

// vetoNth is a control-flow hook that vetoes the nth transfer it sees.
type vetoNth struct{ n, seen int }

func (h *vetoNth) OnControl(kind isa.ControlKind, from, to, ret uint32) error {
	if h.seen++; h.seen == h.n {
		return fmt.Errorf("veto of transfer %d (kind %d) %#x -> %#x", h.n, kind, from, to)
	}
	return nil
}

// TestSuperblockCFIVeto calls a function from a loop whose body is one
// superblock (a branch not taken, a followed jump, then the call that
// ends it) and vetoes the seventh transfer, the fourth call: the veto
// must surface at the same PC and count, with the same reason, as under
// single-stepping, under every cap from 1 to 24 and unbounded.
func TestSuperblockCFIVeto(t *testing.T) {
	x86 := x86World(func(a *x86s.Asm) {
		a.MovRI(x86s.ECX, 6).
			Label("top").CmpRI(x86s.ECX, 100).Jcc(x86s.CondE, "never").Jmp("body").
			Label("never").Raw(0xF4). // hlt
			Label("body").CallLabel("f").DecR(x86s.ECX).Jcc(x86s.CondNE, "top").Ret().
			Label("f").AddRI(x86s.EAX, 1).Ret()
	})
	arm := armWorld(func(a *arms.Asm) {
		a.MovW(arms.R2, 6).
			Label("top").CmpI(arms.R2, 100).B(arms.CondEQ, "never").BAlways("body").
			Label("never").Svc(0).
			Label("body").BLLabel("f").SubI(arms.R2, arms.R2, 1).CmpI(arms.R2, 0).B(arms.CondNE, "top").
			BX(arms.LR).
			Label("f").AddI(arms.R0, arms.R0, 1).BX(arms.LR)
	})
	for _, tc := range []superblockCase{{"x86s", x86}, {"arms", arm}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, caps := range append(capsUpTo(24), nil, []uint64{NoCap}) {
				ref, blk := tc.build(t)
				hr, hb := &vetoNth{n: 7}, &vetoNth{n: 7}
				ref.SetHooks(hr)
				blk.SetHooks(hb)
				Lockstep(t, ref, blk, 5_000, caps)
				if hr.seen != 7 || hb.seen != 7 {
					t.Fatalf("caps %v: hooks saw %d and %d transfers; want the run to end at the 7th's veto",
						caps, hr.seen, hb.seen)
				}
			}
		})
	}
}
