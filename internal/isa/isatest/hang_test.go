package isatest

import (
	"reflect"
	"testing"

	"connlab/internal/campaign"
	"connlab/internal/core"
	"connlab/internal/defense"
	"connlab/internal/exploit"
	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
	"connlab/internal/kernel"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

// The hang referee: block dispatch, which proves cycles and fast-forwards
// them, against kernel.Config.SingleStep, which runs every instruction.
// Each row runs one call on two identically loaded processes under a
// small budget and requires the same RunResult (apart from the Hang
// evidence only block dispatch can produce), registers, flags, dirty
// bytes and memory. Rows that store, terminate, or loop through
// transfers a hook or the recorder observes must not fast-forward.

// refereeBudget is the per-call instruction budget of every row.
const refereeBudget = 100_000

// observer selects what watches a referee row's control transfers.
type observer uint8

const (
	observeNone observer = iota
	observeCFI           // an armed defense.ShadowStack on each side
	observeRec           // a telemetry.ControlRecorder on each side
)

// refereeRow is one program run under both executors.
type refereeRow struct {
	name string
	arch isa.Arch
	prog func() *image.Unit
	obs  observer
	// want is the terminal status; ff whether block dispatch must prove a
	// hang (and then with this period).
	want   kernel.Status
	ff     bool
	period uint64
}

// unit returns a builder of a program unit made of fns.
func unit(arch isa.Arch, fns ...func(u *image.Unit)) func() *image.Unit {
	return func() *image.Unit {
		u := image.NewUnit(arch)
		for _, fn := range fns {
			fn(u)
		}
		return u
	}
}

func x86Main(build func(a *x86s.Asm)) func(u *image.Unit) {
	return x86Func("main", build)
}

func x86Func(name string, build func(a *x86s.Asm)) func(u *image.Unit) {
	return func(u *image.Unit) {
		a := x86s.NewAsm()
		build(a)
		u.AddFuncX86(name, a)
	}
}

func armMain(build func(a *arms.Asm)) func(u *image.Unit) {
	return func(u *image.Unit) {
		a := arms.NewAsm()
		build(a)
		u.AddFuncARM("main", a)
	}
}

// jmpEAX is `jmp eax`, an indirect jump hooks and the recorder observe.
var jmpEAX = []byte{0xFF, 0xE0}

func refereeRows() []refereeRow {
	// x86s: `spin: jmp eax` with eax = spin is a store-free loop whose
	// only transfer is observed; calls push, so they cannot serve.
	jmpLoop := unit(isa.ArchX86S,
		x86Main(func(a *x86s.Asm) { a.MovRISym(x86s.EAX, "spin", 0).Raw(jmpEAX...) }),
		x86Func("spin", func(a *x86s.Asm) { a.Raw(jmpEAX...) }),
	)
	// arms: a bl/bx lr round trip writes only LR.
	callLoop := unit(isa.ArchARMS, armMain(func(a *arms.Asm) {
		a.Label("l").BLLabel("f").BAlways("l").Label("f").BX(arms.LR)
	}))
	return []refereeRow{
		{name: "x86s/jmp-self", arch: isa.ArchX86S,
			prog: unit(isa.ArchX86S, x86Main(func(a *x86s.Asm) { a.Label("l").Jmp("l") })),
			want: kernel.StatusTimeout, ff: true, period: 1},
		{name: "x86s/two-block", arch: isa.ArchX86S,
			prog: unit(isa.ArchX86S, x86Main(func(a *x86s.Asm) {
				a.Label("a").MovRI(x86s.EAX, 1).Jmp("b").
					Label("b").MovRR(x86s.EBX, x86s.EAX).Jmp("a")
			})),
			want: kernel.StatusTimeout, ff: true, period: 4},
		{name: "x86s/store-loop", arch: isa.ArchX86S,
			prog: unit(isa.ArchX86S, x86Main(func(a *x86s.Asm) {
				a.Label("l").MovMR(x86s.ESP, -8, x86s.EAX).Jmp("l")
			})),
			want: kernel.StatusTimeout},
		{name: "x86s/counted-loop", arch: isa.ArchX86S,
			prog: unit(isa.ArchX86S, x86Main(func(a *x86s.Asm) {
				a.MovRI(x86s.ECX, 5000).Label("l").DecR(x86s.ECX).Jcc(x86s.CondNE, "l").Ret()
			})),
			want: kernel.StatusReturned},
		{name: "x86s/jmp-loop", arch: isa.ArchX86S, prog: jmpLoop,
			want: kernel.StatusTimeout, ff: true, period: 1},
		{name: "x86s/jmp-loop-cfi", arch: isa.ArchX86S, prog: jmpLoop, obs: observeCFI,
			want: kernel.StatusTimeout},
		{name: "x86s/jmp-loop-recorder", arch: isa.ArchX86S, prog: jmpLoop, obs: observeRec,
			want: kernel.StatusTimeout},

		{name: "arms/b-self", arch: isa.ArchARMS,
			prog: unit(isa.ArchARMS, armMain(func(a *arms.Asm) { a.Label("l").BAlways("l") })),
			want: kernel.StatusTimeout, ff: true, period: 1},
		{name: "arms/two-block", arch: isa.ArchARMS,
			prog: unit(isa.ArchARMS, armMain(func(a *arms.Asm) {
				a.Label("a").MovW(arms.R0, 1).BAlways("b").
					Label("b").AddR(arms.R1, arms.R0, arms.R0).BAlways("a")
			})),
			want: kernel.StatusTimeout, ff: true, period: 4},
		{name: "arms/store-loop", arch: isa.ArchARMS,
			prog: unit(isa.ArchARMS, armMain(func(a *arms.Asm) {
				a.Label("l").Str(arms.R0, arms.SP, -8).BAlways("l")
			})),
			want: kernel.StatusTimeout},
		{name: "arms/counted-loop", arch: isa.ArchARMS,
			prog: unit(isa.ArchARMS, armMain(func(a *arms.Asm) {
				a.MovW(arms.R0, 5000).Label("l").SubI(arms.R0, arms.R0, 1).CmpI(arms.R0, 0).
					B(arms.CondNE, "l").BX(arms.LR)
			})),
			want: kernel.StatusReturned},
		{name: "arms/call-loop", arch: isa.ArchARMS, prog: callLoop,
			want: kernel.StatusTimeout, ff: true, period: 3},
		{name: "arms/call-loop-cfi", arch: isa.ArchARMS, prog: callLoop, obs: observeCFI,
			want: kernel.StatusTimeout},
		{name: "arms/call-loop-recorder", arch: isa.ArchARMS, prog: callLoop, obs: observeRec,
			want: kernel.StatusTimeout},
	}
}

// refereeSide is one executor's process and observers.
type refereeSide struct {
	p   *kernel.Process
	ss  *defense.ShadowStack
	rec *telemetry.ControlRecorder
}

func loadSide(t *testing.T, row refereeRow, single bool) refereeSide {
	t.Helper()
	libc, err := image.BuildLibc(row.arch)
	if err != nil {
		t.Fatalf("build libc: %v", err)
	}
	cfg := kernel.Config{Seed: 5, InstrBudget: refereeBudget, SingleStep: single}
	var s refereeSide
	if row.obs == observeCFI {
		s.ss = defense.NewShadowStack()
		cfg.Hooks = s.ss
	}
	if s.p, err = kernel.Load(row.prog(), libc, cfg); err != nil {
		t.Fatalf("load: %v", err)
	}
	if s.ss != nil {
		s.ss.Arm(s.p)
	}
	if row.obs == observeRec {
		s.rec = telemetry.NewControlRecorder(64)
		s.p.CPU().SetRecorder(s.rec)
	}
	return s
}

// refereeCompare requires the two runs to agree on everything but the
// hang evidence, which it returns from the block side.
func refereeCompare(t *testing.T, ref, blk *kernel.Process, resR, resB kernel.RunResult) *isa.Hang {
	t.Helper()
	if resR.Hang != nil {
		t.Errorf("SingleStep run carries hang evidence %+v", *resR.Hang)
	}
	hang := resB.Hang
	resB.Hang = nil
	if !reflect.DeepEqual(resR, resB) {
		t.Errorf("run result mismatch:\nsingle-step %+v\nblock       %+v", resR, resB)
	}
	CompareState(t, ref.CPU(), blk.CPU())
	compareDirty(t, ref.Mem(), blk.Mem())
	CompareMem(t, ref.Mem(), blk.Mem())
	return hang
}

func TestHangReferee(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	for _, row := range refereeRows() {
		t.Run(row.name, func(t *testing.T) {
			telemetry.Enable()
			ref, blk := loadSide(t, row, true), loadSide(t, row, false)
			const attempt = 0x5eed
			blk.p.SetAttempt(attempt)
			resR, errR := ref.p.Call("main")
			resB, errB := blk.p.Call("main")
			if errR != nil || errB != nil {
				t.Fatalf("call: single-step %v, block %v", errR, errB)
			}
			hang := refereeCompare(t, ref.p, blk.p, resR, resB)
			if resB.Status != row.want {
				t.Errorf("status %v (%v), want %v", resB.Status, resB, row.want)
			}
			if ref.rec != nil && !reflect.DeepEqual(ref.rec.Events(), blk.rec.Events()) {
				t.Errorf("recorder streams diverge")
			}
			if ref.ss != nil && (ref.ss.Violations != blk.ss.Violations || ref.ss.Depth() != blk.ss.Depth()) {
				t.Errorf("shadow stacks diverge")
			}

			snap := telemetry.TakeSnapshot()
			skipped := snap.Counters[telemetry.CtrEmuInstrSkipped.Name()]
			proven := snap.Counters[telemetry.CtrEmuHangProven.Name()]
			var hangEvents []telemetry.Event
			for _, ev := range telemetry.Events() {
				if ev.Msg == "run hang" {
					hangEvents = append(hangEvents, ev)
				}
			}
			if !row.ff {
				if hang != nil || skipped != 0 || proven != 0 || len(hangEvents) != 0 {
					t.Fatalf("fast-forwarded: hang %+v, emu_instr_skipped %d, emu_hang_proven %d, %d hang events",
						hang, skipped, proven, len(hangEvents))
				}
				return
			}
			if hang == nil {
				t.Fatalf("no hang proven")
			}
			// A self-loop is where the budget ends it; a longer loop ends
			// wherever the budget falls within a period.
			if hang.Period != row.period || row.period == 1 && hang.PC != resB.PC || hang.At >= resB.Instructions {
				t.Errorf("hang %+v: want period %d (at pc %#x if 1), first seen before %d",
					*hang, row.period, resB.PC, resB.Instructions)
			}
			if proven != 1 || skipped == 0 || skipped > refereeBudget {
				t.Errorf("emu_hang_proven %d, emu_instr_skipped %d; want 1 and (0, %d]", proven, skipped, refereeBudget)
			}
			if len(hangEvents) != 1 || hangEvents[0].Level != telemetry.EvWarn ||
				hangEvents[0].Attempt != attempt || hangEvents[0].V0 != uint64(hang.PC) || hangEvents[0].V1 != hang.Period {
				t.Errorf("run hang events %+v, want one warn event for attempt %#x, pc %#x, period %d",
					hangEvents, attempt, hang.PC, hang.Period)
			}
		})
	}
}

// TestHangRefereeRecordedHang is the referee row for the traced hang:
// the ARM rop-execlp chain under W⊕X and diversity seed 30 (cmd/attack
// -arch arms -kind rop-execlp -wx -diversity 30) lands in a one-
// instruction self-loop. Through core.Lab at the default budget it must
// end in a proven timeout; under the referee budget block dispatch and
// SingleStep must agree on the same daemon and packet.
func TestHangRefereeRecordedHang(t *testing.T) {
	lab := core.NewLab()
	prot := campaign.Protection{WX: true, DiversitySeed: 30}
	res, err := lab.RunAttack(isa.ArchARMS, exploit.KindRopExeclp, prot)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != campaign.OutcomeCrash || res.Run.Status != kernel.StatusTimeout ||
		res.Run.Instructions != kernel.DefaultInstrBudget {
		t.Fatalf("recorded hang: outcome %v, run %+v; want a crash by timeout at the default budget", res.Outcome, res.Run)
	}
	if h := res.Run.Hang; h == nil || h.Period != 1 || h.PC != res.Run.PC {
		t.Fatalf("recorded hang evidence %+v, want a period-1 self-loop at pc %#x", h, res.Run.PC)
	}

	tgt, err := lab.Recon(isa.ArchARMS, prot)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exploit.Build(tgt, exploit.KindRopExeclp)
	if err != nil {
		t.Fatal(err)
	}
	cfg, prog, ss, err := campaign.TargetSetup(isa.ArchARMS, prot, lab.Build, lab.TargetSeed)
	if err != nil || ss != nil {
		t.Fatalf("target setup: %v (shadow stack %v)", err, ss)
	}
	libc, err := image.BuildLibc(isa.ArchARMS)
	if err != nil {
		t.Fatal(err)
	}
	cfg.InstrBudget = refereeBudget
	refCfg := cfg
	refCfg.SingleStep = true
	ref, err := victim.NewDaemonWith(prog, libc, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := victim.NewDaemonWith(prog, libc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resR, errR := core.FireAt(ref, ex)
	resB, errB := core.FireAt(blk, ex)
	if errR != nil || errB != nil {
		t.Fatalf("fire: single-step %v, block %v", errR, errB)
	}
	hang := refereeCompare(t, ref.Process(), blk.Process(), resR, resB)
	if resB.Status != kernel.StatusTimeout || hang == nil || hang.PC != res.Run.PC || hang.Period != 1 {
		t.Fatalf("under budget %d: %+v with hang %+v, want the same self-loop at %#x",
			refereeBudget, resB, hang, res.Run.PC)
	}
	if bs := blk.Process().CPU().BlockStats(); bs.Skipped == 0 {
		t.Errorf("block dispatch skipped nothing on the recorded hang")
	}
}
