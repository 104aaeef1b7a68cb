package isatest

import (
	"reflect"
	"testing"

	"connlab/internal/defense"
	"connlab/internal/dns"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

// The victim-image leg of the differential harness: the same recorded
// victim process (Connman-analog daemon, libc, heap, stacks) is driven
// through whole DNS transcripts — benign traffic plus every exploit
// family the lab builds — once under block dispatch and once under
// kernel.Config.SingleStep. Outcomes, stdout, retired-instruction
// counts, spawned shells and the final address-space bytes must match
// exactly; whether a given exploit lands is irrelevant to the harness,
// only that both executors agree on what happened. The CFI rows arm a
// shadow stack and attach a flight recorder on each side, so the hook
// notifications and vetoes raised inside block dispatch are pinned to
// the single-step stream too.

// benignPacket builds a well-formed answer that passes the daemon's
// header pre-checks and parses cleanly.
func benignPacket(t *testing.T, id uint16) []byte {
	t.Helper()
	q := dns.NewQuery(id, "ok.example", dns.TypeA)
	resp := dns.NewResponse(q)
	resp.Answers = []dns.RR{dns.A("ok.example", 60, [4]byte{10, 0, 0, byte(id)})}
	pkt, err := resp.Encode()
	if err != nil {
		t.Fatalf("encode benign: %v", err)
	}
	return pkt
}

// feedBoth delivers one packet to both daemons and requires identical
// results, including the handled/crashed bookkeeping and stdout so far.
func feedBoth(t *testing.T, ref, blk *victim.Daemon, pkt []byte, stage string) kernel.RunResult {
	t.Helper()
	resR, errR := ref.HandleResponse(pkt)
	resB, errB := blk.HandleResponse(pkt)
	if (errR == nil) != (errB == nil) {
		t.Fatalf("%s: error mismatch: single-step %v, block %v", stage, errR, errB)
	}
	if errR != nil && errR.Error() != errB.Error() {
		t.Fatalf("%s: error text mismatch: single-step %q, block %q", stage, errR, errB)
	}
	if !reflect.DeepEqual(resR, resB) {
		t.Fatalf("%s: run result mismatch:\nsingle-step %+v\nblock       %+v", stage, resR, resB)
	}
	if ref.Crashed() != blk.Crashed() || ref.Handled() != blk.Handled() {
		t.Fatalf("%s: daemon state mismatch: single-step crashed=%v handled=%d, block crashed=%v handled=%d",
			stage, ref.Crashed(), ref.Handled(), blk.Crashed(), blk.Handled())
	}
	if a, b := ref.Process().Stdout(), blk.Process().Stdout(); a != b {
		t.Fatalf("%s: stdout mismatch:\nsingle-step %q\nblock       %q", stage, a, b)
	}
	if a, b := ref.Process().CPU().InstrCount(), blk.Process().CPU().InstrCount(); a != b {
		t.Fatalf("%s: instruction count mismatch: single-step %d, block %d", stage, a, b)
	}
	if !reflect.DeepEqual(ref.Shells(), blk.Shells()) {
		t.Fatalf("%s: shells mismatch:\nsingle-step %+v\nblock       %+v", stage, ref.Shells(), blk.Shells())
	}
	return resB
}

func TestVictimImageDifferential(t *testing.T) {
	cases := []struct {
		name      string
		arch      isa.Arch
		cfg       kernel.Config
		kind      exploit.Kind // empty = benign traffic only
		wantShell bool         // deterministic-success combos are pinned
		cfi       bool         // shadow stack + flight recorder on both sides
	}{
		{"x86s/benign", isa.ArchX86S, kernel.Config{Seed: 11}, "", false, false},
		{"x86s/dos", isa.ArchX86S, kernel.Config{Seed: 11}, exploit.KindDoS, false, false},
		{"x86s/code-injection", isa.ArchX86S, kernel.Config{Seed: 11}, exploit.KindCodeInjection, true, false},
		{"x86s/ret2libc-wx", isa.ArchX86S, kernel.Config{WX: true, Seed: 11}, exploit.KindRet2Libc, true, false},
		{"x86s/rop-wx-aslr", isa.ArchX86S, kernel.Config{WX: true, ASLR: true, Seed: 11}, exploit.KindRopMemcpy, false, false},
		{"arms/benign", isa.ArchARMS, kernel.Config{Seed: 11}, "", false, false},
		{"arms/dos", isa.ArchARMS, kernel.Config{Seed: 11}, exploit.KindDoS, false, false},
		{"arms/code-injection", isa.ArchARMS, kernel.Config{Seed: 11}, exploit.KindCodeInjection, true, false},
		{"arms/rop-memcpy-wx", isa.ArchARMS, kernel.Config{WX: true, Seed: 11}, exploit.KindRopMemcpy, false, false},
		{"arms/rop-wx-aslr", isa.ArchARMS, kernel.Config{WX: true, ASLR: true, Seed: 11}, exploit.KindRopExeclp, false, false},
		// Every exploit kind that builds on each ISA, under CFI: ret2libc
		// is x86-only and the execlp chain ARM-only (NO-PAYLOAD elsewhere).
		{"x86s/cfi/benign", isa.ArchX86S, kernel.Config{Seed: 11}, "", false, true},
		{"x86s/cfi/dos", isa.ArchX86S, kernel.Config{Seed: 11}, exploit.KindDoS, false, true},
		{"x86s/cfi/code-injection", isa.ArchX86S, kernel.Config{Seed: 11}, exploit.KindCodeInjection, false, true},
		{"x86s/cfi/ret2libc-wx", isa.ArchX86S, kernel.Config{WX: true, Seed: 11}, exploit.KindRet2Libc, false, true},
		{"x86s/cfi/rop-memcpy-wx-aslr", isa.ArchX86S, kernel.Config{WX: true, ASLR: true, Seed: 11}, exploit.KindRopMemcpy, false, true},
		{"arms/cfi/benign", isa.ArchARMS, kernel.Config{Seed: 11}, "", false, true},
		{"arms/cfi/dos", isa.ArchARMS, kernel.Config{Seed: 11}, exploit.KindDoS, false, true},
		{"arms/cfi/code-injection", isa.ArchARMS, kernel.Config{Seed: 11}, exploit.KindCodeInjection, false, true},
		{"arms/cfi/rop-memcpy-wx", isa.ArchARMS, kernel.Config{WX: true, Seed: 11}, exploit.KindRopMemcpy, false, true},
		{"arms/cfi/rop-execlp-wx-aslr", isa.ArchARMS, kernel.Config{WX: true, ASLR: true, Seed: 11}, exploit.KindRopExeclp, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			refCfg, blkCfg := c.cfg, c.cfg
			refCfg.SingleStep = true
			var refSS, blkSS *defense.ShadowStack
			if c.cfi {
				refSS, blkSS = defense.NewShadowStack(), defense.NewShadowStack()
				refCfg.Hooks, blkCfg.Hooks = refSS, blkSS
			}
			ref, err := victim.NewDaemon(c.arch, victim.BuildOpts{}, refCfg)
			if err != nil {
				t.Fatalf("single-step daemon: %v", err)
			}
			blk, err := victim.NewDaemon(c.arch, victim.BuildOpts{}, blkCfg)
			if err != nil {
				t.Fatalf("block daemon: %v", err)
			}
			var refRec, blkRec *telemetry.ControlRecorder
			if c.cfi {
				refSS.Arm(ref.Process())
				blkSS.Arm(blk.Process())
				refRec, blkRec = telemetry.NewControlRecorder(1<<14), telemetry.NewControlRecorder(1<<14)
				ref.Process().CPU().SetRecorder(refRec)
				blk.Process().CPU().SetRecorder(blkRec)
			}

			feedBoth(t, ref, blk, benignPacket(t, 1), "benign#1")
			var last kernel.RunResult
			if c.kind != "" {
				tgt, err := exploit.Recon(c.arch, victim.BuildOpts{}, c.cfg)
				if err != nil {
					t.Fatalf("recon: %v", err)
				}
				ex, err := exploit.Build(tgt, c.kind)
				if err != nil {
					t.Fatalf("build %s: %v", c.kind, err)
				}
				pkt, err := ex.Response(dns.NewQuery(0x1337, "time.iot-vendor.example", dns.TypeA))
				if err != nil {
					t.Fatalf("exploit response: %v", err)
				}
				last = feedBoth(t, ref, blk, pkt, "exploit")
			}
			if !blk.Crashed() {
				feedBoth(t, ref, blk, benignPacket(t, 2), "benign#2")
			}

			CompareMem(t, ref.Process().Mem(), blk.Process().Mem())
			if c.wantShell && last.Status != kernel.StatusShell {
				t.Errorf("%s under both executors: status %v, want shell", c.kind, last.Status)
			}
			if c.cfi {
				// Every hijack returns through a corrupted frame, so the
				// shadow stack vetoes it — inside block dispatch on the
				// block side.
				if hijack := c.kind != "" && c.kind != exploit.KindDoS; hijack && last.Status != kernel.StatusCFI {
					t.Errorf("%s under CFI: status %v, want cfi-violation", c.kind, last.Status)
				}
				if a, b := refRec.Total(), blkRec.Total(); a != b || a == 0 {
					t.Errorf("recorded control transfers: single-step %d, block %d, want equal and > 0", a, b)
				}
				if !reflect.DeepEqual(refRec.Events(), blkRec.Events()) {
					t.Errorf("recorder streams diverge")
				}
				if refSS.Violations != blkSS.Violations || refSS.Depth() != blkSS.Depth() {
					t.Errorf("shadow stacks diverge: single-step violations=%d depth=%d, block violations=%d depth=%d",
						refSS.Violations, refSS.Depth(), blkSS.Violations, blkSS.Depth())
				}
			}
			if bs := blk.Process().CPU().BlockStats(); bs.Instrs == 0 {
				t.Errorf("block dispatch never engaged on the victim image")
			} else if rs := ref.Process().CPU().BlockStats(); rs.Instrs != 0 {
				t.Errorf("SingleStep reference retired %d instructions in blocks, want 0", rs.Instrs)
			}
		})
	}
}
