package isatest

import (
	"testing"

	"connlab/internal/isa"
	"connlab/internal/isa/x86s"
	"connlab/internal/mem"
)

// TestRecycleKeepsTranslations pins what a recycle (a memory Reset and
// ResetState, as kernel.Process.RecycleWith does) keeps of the block
// cache. Dispatch and its counters see a cold cache: a run after a
// recycle counts exactly the translations, hits and invalidations of the
// first. The translations themselves are kept while the code generation
// stands, and a patch of the text through RW→write→RX moves it, so the
// next run translates the new bytes. A write that bypasses the accessors,
// which runtime code must never make, is invisible to the code
// generation; the kept translation still runs the old bytes, which is
// how this test sees the reuse. The cache reads cold after a recycle
// however many recycles came before, past the wrap of ResetBlocks' epoch
// count too.
func TestRecycleKeepsTranslations(t *testing.T) {
	a := x86s.NewAsm()
	// The call keeps the loop out of the slot of the entry block, which
	// the return sentinel's negative entry shares.
	a.CallLabel("f").Ret().
		Label("f").MovRI(x86s.ECX, 50).
		Label("l").AddRI(x86s.EAX, 1).DecR(x86s.ECX).Jcc(x86s.CondNE, "l").
		Ret()
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	const immOff = 13 // the imm8 of add eax, 1 (83 C0 01) after call, ret and mov
	c := buildX86(t, code.Bytes, nil)
	m := c.Mem()
	m.Seal()
	run := func(name string, wantEAX uint32) isa.BlockStats {
		t.Helper()
		before := c.BlockStats()
		for c.StepBlock(NoCap).Kind != isa.EventFault {
		}
		if got := c.Reg(x86s.EAX); got != wantEAX {
			t.Fatalf("%s: eax = %d, want %d", name, got, wantEAX)
		}
		bs := c.BlockStats()
		return isa.BlockStats{
			Translated:  bs.Translated - before.Translated,
			Hits:        bs.Hits - before.Hits,
			Invalidated: bs.Invalidated - before.Invalidated,
			Instrs:      bs.Instrs - before.Instrs,
		}
	}
	recycle := func() {
		if !m.Reset() {
			t.Fatal("reset failed")
		}
		c.ResetState()
		c.SetPC(codeBase)
		c.SetReg(x86s.EBX, dataBase)
		c.SetSP(stackBase + spOff)
	}

	cold := run("first run", 50)
	recycle()
	if got := run("recycled", 50); got != cold {
		t.Errorf("recycled run counted %+v, a cold cache %+v", got, cold)
	}
	m.Segment("text").Data[immOff] = 7
	recycle()
	if got := run("bypassing write", 50); got != cold {
		t.Errorf("bypassing write: counted %+v, a cold cache %+v", got, cold)
	}
	if err := m.SetPerm("text", mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if f := m.WriteBytes(codeBase+immOff, []byte{5}); f != nil {
		t.Fatal(f)
	}
	if err := m.SetPerm("text", mem.PermRX); err != nil {
		t.Fatal(err)
	}
	m.Seal()
	recycle()
	if got := run("patched", 250); got != cold {
		t.Errorf("patched: counted %+v, a cold cache %+v", got, cold)
	}
	// ResetBlocks starts an epoch instead of visiting the slots; when the
	// epoch count wraps (2²⁴ resets) it clears them, and the cache must
	// still read as cold, no slot counted as invalidated.
	for i := 0; i < 1<<24-1; i++ {
		c.ResetBlocks()
	}
	recycle()
	if got := run("epoch wrap", 250); got != cold {
		t.Errorf("after the epoch wrap: counted %+v, a cold cache %+v", got, cold)
	}
	recycle()
	if got := run("after the wrap", 250); got != cold {
		t.Errorf("after the wrap: counted %+v, a cold cache %+v", got, cold)
	}
}

// TestWritableLayoutKeepsSlots: a layout change that touches writable
// segments only keeps the code generation, so between two dispatches it
// keeps every slot. After a stack slide, and after the stack flips to
// RWX and back to RW, a run of the copy loops is all hits, with nothing
// translated (but its entry) or invalidated, on both ISAs. Re-permitting the code, even
// to the permissions it has, still invalidates every block.
func TestWritableLayoutKeepsSlots(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (isa.CPU, isa.CPU)
	}{
		{"x86s", x86CopyLoops},
		{"arms", armCopyLoops},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, c := tc.build(t)
			m := c.Mem()
			sp := uint32(stackBase + spOff)
			run := func(name string) isa.BlockStats {
				t.Helper()
				before := c.BlockStats()
				c.SetPC(codeBase)
				c.SetSP(sp)
				if f := m.WriteU32(sp, sentinel); f != nil { // x86s returns through it
					t.Fatal(f)
				}
				ev := c.StepBlock(NoCap)
				for ; ev.Kind != isa.EventFault; ev = c.StepBlock(NoCap) {
				}
				if ev.PC != sentinel {
					t.Fatalf("%s: faulted at %#x, want the sentinel", name, ev.PC)
				}
				bs := c.BlockStats()
				return isa.BlockStats{
					Translated:  bs.Translated - before.Translated,
					Hits:        bs.Hits - before.Hits,
					Invalidated: bs.Invalidated - before.Invalidated,
				}
			}
			// The entry block shares its slot with the sentinel's negative
			// entry, so every run translates it again.
			cold := run("cold")
			warm := run("warm")
			if cold.Translated < 2 || warm.Translated != 1 || warm.Hits != cold.Translated+cold.Hits-1 {
				t.Fatalf("cold run %+v, warm run %+v: want the warm run all hits but the entry", cold, warm)
			}
			if err := m.Move(stackBase+0x10000, m.Segment("stack")); err != nil {
				t.Fatal(err)
			}
			sp += 0x10000
			if got := run("stack slid"); got != warm {
				t.Errorf("after a stack slide: %+v, want %+v", got, warm)
			}
			for _, perm := range []mem.Perm{mem.PermRWX, mem.PermRW} {
				if err := m.SetPerm("stack", perm); err != nil {
					t.Fatal(err)
				}
				if got := run("stack " + perm.String()); got != warm {
					t.Errorf("after the stack became %v: %+v, want %+v", perm, got, warm)
				}
			}
			if err := m.SetPerm("text", mem.PermRX); err != nil {
				t.Fatal(err)
			}
			if got := run("text re-permitted"); got.Translated != cold.Translated || got.Invalidated != warm.Hits {
				t.Errorf("after the text was re-permitted: %+v, want %d translated and %d invalidated",
					got, cold.Translated, warm.Hits)
			}
		})
	}
}
