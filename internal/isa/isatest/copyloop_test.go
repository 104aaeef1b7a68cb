package isatest

import (
	"fmt"
	"reflect"
	"testing"

	"connlab/internal/defense"
	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
	"connlab/internal/mem"
	"connlab/internal/telemetry"
)

// Copy-loop rows: block dispatch retires whole passes of the counted
// byte-copy loop (libc's memcpy) in one step at the loop's back edge, and
// must leave every register, flag, byte, fault and instruction count as
// the passes single-stepped do. Each row copies between segments laid out
// so a copy can run off the end of its source or destination: a
// patterned data segment, a read-only segment right after it, then a
// write-only (unreadable) one, and apart from them a short tail segment
// with nothing mapped past it.
const (
	cpData = 0x00300000 // 0x2000 bytes, rw-
	cpRO   = 0x00302000 // 0x100 bytes, r--
	cpWO   = 0x00302100 // 0x100 bytes, -w-
	cpTail = 0x00303000 // 0x40 bytes, rw-
)

// copyMem maps code at codeBase and the copy-loop segments, each filled
// with its own byte pattern (a copy of zeros onto zeros would hide a
// wrong source), and the stack, and seals them, so the dirty ranges
// cover only what the run writes.
func copyMem(t testing.TB, code []byte) *mem.Memory {
	t.Helper()
	m := mem.New()
	for i, s := range []struct {
		name       string
		base, size uint32
		perm       mem.Perm
	}{
		{"text", codeBase, uint32(len(code)), mem.PermRX},
		{"data", cpData, 0x2000, mem.PermRW},
		{"ro", cpRO, 0x100, mem.PermRead},
		{"wo", cpWO, 0x100, mem.PermWrite},
		{"tail", cpTail, 0x40, mem.PermRW},
		{"stack", stackBase, stackSize, mem.PermRW},
	} {
		seg, err := m.Map(s.name, s.base, s.size, s.perm)
		if err != nil {
			t.Fatalf("map %s: %v", s.name, err)
		}
		if s.name == "text" {
			seg.Populate(0, code)
			continue
		}
		fill := make([]byte, s.size)
		for j := range fill {
			fill[j] = byte(j*7 + i*61 + j>>8)
		}
		seg.Populate(0, fill)
	}
	m.Seal()
	return m
}

// copyRegs names where a copy loop keeps its count, source and
// destination (and, on arms, the byte in flight).
type copyRegs struct{ rc, rt, rs, rd int }

// copyProgram is one shape of copy loop, called once from a main that
// returns to the sentinel. match says whether the shape is the counted
// byte-copy loop block dispatch summarises; twin, for such a shape, is a
// program that is not summarised but dispatches exactly like it: the
// same blocks, instructions per pass and memory accesses.
type copyProgram struct {
	name  string
	arch  isa.Arch
	regs  copyRegs
	match bool
	code  []byte
	twin  *copyProgram
}

// x86Copy assembles `main: cmp esp, -1; call cpy; ret` around the loop
// body emitted by loop, which must start at label "cpy" and jump to
// "done" to return. The cmp sets CF, which dec must keep.
func x86Copy(t testing.TB, name string, match bool, loop func(a *x86s.Asm)) copyProgram {
	a := x86s.NewAsm()
	a.CmpRI(x86s.ESP, -1).CallLabel("cpy").Ret().Label("cpy")
	loop(a)
	a.Label("done").Ret()
	c, err := a.Assemble()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return copyProgram{name, isa.ArchX86S, copyRegs{x86s.ECX, -1, x86s.ESI, x86s.EDI}, match, c.Bytes, nil}
}

// armCopy assembles `main: push {lr}; bl cpy; pop {pc}` around the loop
// body, which must start at "cpy" and branch to "done" to return.
func armCopy(t testing.TB, name string, r copyRegs, match bool, loop func(a *arms.Asm)) copyProgram {
	a := arms.NewAsm()
	a.Push(arms.LR).BLLabel("cpy").Pop(arms.PC).Label("cpy")
	loop(a)
	a.Label("done").BX(arms.LR)
	c, err := a.Assemble()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return copyProgram{name, isa.ArchARMS, r, match, c.Bytes, nil}
}

// armShape varies the libc memcpy loop: the ldrb offset, each register's
// step, and whether the two pointer increments are swapped.
type armShape struct {
	off, dStep, sStep, cStep int32
	swap                     bool
}

// libcShape is the libc memcpy loop itself.
var libcShape = armShape{0, 1, 1, 1, false}

// armLoop emits the loop of shape sh over r.
func armLoop(r copyRegs, sh armShape) func(a *arms.Asm) {
	return func(a *arms.Asm) {
		a.Label("l").CmpI(r.rc, 0).B(arms.CondEQ, "done").
			Ldrb(r.rt, r.rs, sh.off).Strb(r.rt, r.rd, 0)
		if sh.swap {
			a.AddI(r.rs, r.rs, sh.sStep).AddI(r.rd, r.rd, sh.dStep)
		} else {
			a.AddI(r.rd, r.rd, sh.dStep).AddI(r.rs, r.rs, sh.sStep)
		}
		a.SubI(r.rc, r.rc, sh.cStep).BAlways("l")
	}
}

// armTwin is the libc loop over r and its twin, the same loop with the
// pointer increments swapped.
func armTwin(t testing.TB, name string, r copyRegs) copyProgram {
	p := armCopy(t, name, r, true, armLoop(r, libcShape))
	twin := armCopy(t, name+"/twin", r, false, armLoop(r, armShape{0, 1, 1, 1, true}))
	p.twin = &twin
	return p
}

// x86Twin is the libc loop and its twin, the same loop counting down
// with sub ecx, 1.
func x86Twin(t testing.TB) copyProgram {
	p := x86Copy(t, "x86s/libc", true, func(a *x86s.Asm) {
		a.Jecxz("done").Movsb().DecR(x86s.ECX).Jmp("cpy")
	})
	twin := x86Copy(t, "x86s/libc/twin", false, func(a *x86s.Asm) {
		a.Jecxz("done").Movsb().SubRI(x86s.ECX, 1).Jmp("cpy")
	})
	p.twin = &twin
	return p
}

// copyPrograms returns the summarised shapes (the libc loops and, on
// arms, register-permuted ones) and the near misses that must run
// interpreted.
func copyPrograms(t testing.TB) []copyProgram {
	libc := copyRegs{arms.R2, arms.R3, arms.R1, arms.R0}
	progs := []copyProgram{
		x86Twin(t),
		x86Copy(t, "x86s/dec-edx", false, func(a *x86s.Asm) {
			a.Jecxz("done").Movsb().DecR(x86s.EDX).Jmp("cpy")
		}),
		x86Copy(t, "x86s/step2", false, func(a *x86s.Asm) {
			a.Jecxz("done").Movsb().Movsb().DecR(x86s.ECX).Jmp("cpy")
		}),
		x86Copy(t, "x86s/inner-loop", false, func(a *x86s.Asm) {
			a.Jecxz("done").Label("l").Movsb().DecR(x86s.ECX).Jmp("l")
		}),
		armTwin(t, "arms/libc", libc),
		armCopy(t, "arms/dst-step2", libc, false, armLoop(libc, armShape{0, 2, 1, 1, false})),
		armCopy(t, "arms/src-step2", libc, false, armLoop(libc, armShape{0, 1, 2, 1, false})),
		armCopy(t, "arms/count-step2", libc, false, armLoop(libc, armShape{0, 1, 1, 2, false})),
		armCopy(t, "arms/ldrb+1", libc, false, armLoop(libc, armShape{1, 1, 1, 1, false})),
		armCopy(t, "arms/rc=pc", copyRegs{arms.PC, arms.R3, arms.R1, arms.R0}, false,
			armLoop(copyRegs{arms.PC, arms.R3, arms.R1, arms.R0}, libcShape)),
		armCopy(t, "arms/rs=rd", copyRegs{arms.R2, arms.R3, arms.R0, arms.R0}, false,
			armLoop(copyRegs{arms.R2, arms.R3, arms.R0, arms.R0}, libcShape)),
		armCopy(t, "arms/beq->bne", libc, false, func(a *arms.Asm) {
			a.Label("l").CmpI(arms.R2, 0).B(arms.CondNE, "done").
				Ldrb(arms.R3, arms.R1, 0).Strb(arms.R3, arms.R0, 0).
				AddI(arms.R0, arms.R0, 1).AddI(arms.R1, arms.R1, 1).SubI(arms.R2, arms.R2, 1).BAlways("l")
		}),
	}
	for _, r := range []copyRegs{
		{arms.R0, arms.R1, arms.R2, arms.R3},
		{arms.R7, arms.R12, arms.R4, arms.R9},
		{arms.R11, arms.R5, arms.R8, arms.R6},
	} {
		progs = append(progs, armTwin(t, fmt.Sprintf("arms/r%d,r%d,r%d,r%d", r.rc, r.rt, r.rs, r.rd), r))
	}
	return progs
}

// copyRun is one copy: count bytes from src to dst.
type copyRun struct {
	name            string
	count, src, dst uint32
}

// copyRuns covers the counts (2³²−1 runs until the destination reaches
// the read-only segment), overlaps in both directions, and sources and
// destinations that run off their segment.
var copyRuns = []copyRun{
	{"count0", 0, cpData, cpData + 0x1000},
	{"count1", 1, cpData, cpData + 0x1000},
	{"count2", 2, cpData, cpData + 0x1000},
	{"count63", 63, cpData, cpData + 0x1000},
	{"count64", 64, cpData, cpData + 0x1000},
	{"count4096", 4096, cpData, cpData + 0x1000},
	{"count2^32-1/dst-into-ro", 0xFFFFFFFF, cpData, cpData + 0x1000},
	{"overlap/dst=src+1", 100, cpData + 0x10, cpData + 0x11},
	{"overlap/dst=src+5", 100, cpData + 0x10, cpData + 0x15},
	{"overlap/src=dst+3", 100, cpData + 0x13, cpData + 0x10},
	{"identical", 100, cpData + 0x10, cpData + 0x10},
	{"src-into-ro", 0x40, cpData + 0x1FF0, cpData},
	{"src-into-unreadable", 0x40, cpRO + 0xF0, cpData},
	{"src-into-unmapped", 0x40, cpTail + 0x30, cpData},
	{"dst-into-unmapped", 0x40, cpData, cpTail + 0x30},
	{"dst-read-only", 0x10, cpData, cpRO},
	{"src-unreadable", 0x10, cpWO, cpData},
}

// copyObs attaches observers to one side of a pair.
type copyObs struct {
	ss  *defense.ShadowStack
	rec *telemetry.ControlRecorder
}

// build constructs one side of a copy pair, with a CFI shadow stack and a
// flight recorder attached when observed.
func (p copyProgram) build(t testing.TB, run copyRun, observed bool) (isa.CPU, copyObs) {
	t.Helper()
	m := copyMem(t, p.code)
	var c isa.CPU
	if p.arch == isa.ArchX86S {
		c = x86s.New(m)
	} else {
		c = arms.New(m)
	}
	c.SetPC(codeBase)
	c.SetSP(stackBase + spOff)
	if p.arch == isa.ArchX86S {
		if f := m.WriteU32(c.SP(), sentinel); f != nil {
			t.Fatalf("plant sentinel: %v", f)
		}
	} else {
		c.SetReg(arms.LR, sentinel)
	}
	if p.regs.rc != arms.PC { // the rc = PC near miss counts with PC itself
		c.SetReg(p.regs.rc, run.count)
	}
	c.SetReg(p.regs.rs, run.src)
	c.SetReg(p.regs.rd, run.dst)
	var o copyObs
	if observed {
		o.ss, o.rec = defense.NewShadowStack(), telemetry.NewControlRecorder(64)
		o.ss.ResetCall(sentinel)
		c.SetHooks(o.ss)
		c.SetRecorder(o.rec)
	}
	return c, o
}

// nearMissRuns are the copies the near-miss shapes run: enough to show
// they agree, and are not summarised, whether they end, fault or overlap.
var nearMissRuns = map[string]bool{
	"count0": true, "count63": true, "overlap/dst=src+1": true, "src-into-unreadable": true, "dst-read-only": true,
}

// dispatch drives cpu through block dispatch as Lockstep drives its
// block side.
func dispatch(cpu isa.CPU, maxInstrs uint64, caps []uint64) {
	if len(caps) == 0 {
		caps = DefaultCaps
	}
	for d, retired := 0, uint64(0); retired < maxInstrs; d++ {
		before := cpu.InstrCount()
		ev := cpu.StepBlock(min(caps[d%len(caps)], maxInstrs-retired))
		retired += cpu.InstrCount() - before
		if ev.Kind == isa.EventFault || ev.Kind == isa.EventCFIViolation {
			return
		}
	}
}

// TestCopyLoopSummary runs every copy shape over its copies under the
// lockstep harness: under every cap from 1 to 40, so the watch point
// falls on every instruction of a pass and summaries of every length meet
// it (these runs stop after capped instructions, past the short copies;
// short mode, the -race leg, takes every fourth cap), with the default
// cap cycle, and unbounded with a CFI shadow stack and a flight recorder
// attached, whose streams must agree too. Unbounded, the libc shapes must
// retire instructions through summaries whenever two or more passes run,
// observers or not, and the near misses never. Summaries must leave
// dispatch itself untouched: under every cap, each BlockStats counter
// but Bulk equals the unsummarised twin's.
func TestCopyLoopSummary(t *testing.T) {
	const maxInstrs, capped = 80_000, 1_500
	caps := capsUpTo(40)
	if testing.Short() {
		for i := range caps[:10] {
			caps[i] = caps[4*i]
		}
		caps = caps[:10]
	}
	for _, p := range copyPrograms(t) {
		t.Run(p.name, func(t *testing.T) {
			for _, run := range copyRuns {
				if !p.match && !nearMissRuns[run.name] {
					continue
				}
				t.Run(run.name, func(t *testing.T) {
					for _, c := range append(caps, nil) {
						n := uint64(capped)
						if c == nil {
							n = maxInstrs
						}
						ref, _ := p.build(t, run, false)
						blk, _ := p.build(t, run, false)
						Lockstep(t, ref, blk, n, c)
						if p.twin == nil {
							continue
						}
						twin, _ := p.twin.build(t, run, false)
						dispatch(twin, n, c)
						got, want := blk.BlockStats(), twin.BlockStats()
						if got.Bulk = 0; got != want || blk.InstrCount() != twin.InstrCount() {
							t.Fatalf("caps %v: block stats %+v after %d instructions, unsummarised twin %+v after %d",
								c, got, blk.InstrCount(), want, twin.InstrCount())
						}
					}
					ref, ro := p.build(t, run, true)
					blk, bo := p.build(t, run, true)
					Lockstep(t, ref, blk, maxInstrs, []uint64{NoCap})
					if ro.rec.Total() != bo.rec.Total() || !reflect.DeepEqual(ro.rec.Events(), bo.rec.Events()) {
						t.Errorf("recorder: single-step %d %+v, block %d %+v",
							ro.rec.Total(), ro.rec.Events(), bo.rec.Total(), bo.rec.Events())
					}
					if ro.ss.Depth() != bo.ss.Depth() || ro.ss.Violations != bo.ss.Violations {
						t.Errorf("shadow stack: single-step depth %d, %d violations; block %d, %d",
							ro.ss.Depth(), ro.ss.Violations, bo.ss.Depth(), bo.ss.Violations)
					}
					bulk := blk.BlockStats().Bulk
					switch {
					case !p.match && bulk != 0:
						t.Errorf("near miss retired %d instructions through summaries", bulk)
					case p.match && run.count >= 3 && run.src != cpWO && run.dst != cpRO && bulk == 0:
						t.Errorf("copy loop retired no instructions through summaries")
					}
				})
			}
		})
	}
}

// FuzzCopyLoop is the copy-loop summary's differential fuzz target: the
// libc copy loop of either ISA (on arms over fuzzed distinct registers)
// copies a fuzzed count between fuzzed places in the copy-loop segments,
// in lockstep with single-stepping under a fuzzed two-cap cycle (0 is
// unbounded), optionally observed by a shadow stack and a recorder, and
// must also dispatch exactly as its unsummarised twin.
func FuzzCopyLoop(f *testing.F) {
	f.Add(false, uint32(100), uint16(0x10), uint16(0x11), uint16(0), uint8(0), uint8(0), false)
	f.Add(true, uint32(100), uint16(0x13), uint16(0x10), uint16(7), uint8(40), uint8(3), true)
	f.Add(false, uint32(0xFFFFFFFF), uint16(0), uint16(0x1000), uint16(0), uint8(97), uint8(0), false)
	f.Add(true, uint32(0x40), uint16(0x20F0), uint16(0), uint16(99), uint8(0), uint8(61), false)
	f.Add(true, uint32(0x40), uint16(0x3030), uint16(0x1FF8), uint16(5), uint8(17), uint8(1), true)
	f.Fuzz(func(t *testing.T, onARMS bool, count uint32, src, dst, regs uint16, capA, capB uint8, observed bool) {
		const span, maxInstrs = 0x3080, 20_000 // data, ro, wo, a gap, tail and past it
		run := copyRun{"fuzz", count, cpData + uint32(src)%span, cpData + uint32(dst)%span}
		var p copyProgram
		if onARMS {
			// Four distinct registers of r0-r12, drawn from regs.
			pool := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
			var pick [4]int
			for i := range pick {
				j := int(regs) % len(pool)
				regs /= uint16(len(pool))
				pick[i], pool = pool[j], append(pool[:j], pool[j+1:]...)
			}
			p = armTwin(t, "fuzz", copyRegs{pick[0], pick[1], pick[2], pick[3]})
		} else {
			p = x86Twin(t)
		}
		caps := []uint64{NoCap, NoCap}
		for i, c := range []uint8{capA, capB} {
			if c != 0 {
				caps[i] = uint64(c)
			}
		}
		ref, ro := p.build(t, run, observed)
		blk, bo := p.build(t, run, observed)
		Lockstep(t, ref, blk, maxInstrs, caps)
		if observed && (ro.rec.Total() != bo.rec.Total() || !reflect.DeepEqual(ro.rec.Events(), bo.rec.Events())) {
			t.Fatalf("recorder: single-step %+v, block %+v", ro.rec.Events(), bo.rec.Events())
		}
		twin, _ := p.twin.build(t, run, observed)
		dispatch(twin, maxInstrs, caps)
		got, want := blk.BlockStats(), twin.BlockStats()
		if got.Bulk = 0; got != want || blk.InstrCount() != twin.InstrCount() {
			t.Fatalf("block stats %+v after %d instructions, unsummarised twin %+v after %d",
				got, blk.InstrCount(), want, twin.InstrCount())
		}
	})
}
