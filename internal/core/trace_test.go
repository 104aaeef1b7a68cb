package core

import (
	"testing"

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/telemetry"
)

// retTargets collects the destinations of recorded return transfers.
func retTargets(trace []telemetry.ControlEvent) []uint32 {
	var out []uint32
	for _, ev := range trace {
		if ev.Kind == telemetry.CtlReturn {
			out = append(out, ev.To)
		}
	}
	return out
}

// TestTraceMatchesCodeInjection cross-checks the flight recorder against
// the payload: the E2 code-injection attack overwrites the return
// address with a pointer into the smashed name buffer, so the trace must
// contain a ret landing inside that buffer (at BufferAddr plus the
// shellcode's entry offset) followed by the spawned shell's syscall.
func TestTraceMatchesCodeInjection(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	telemetry.EnableTrace(1024)
	lab := NewLab()
	tgt, err := lab.Recon(isa.ArchX86S, campaign.Protection{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := lab.RunAttack(isa.ArchX86S, exploit.KindCodeInjection, campaign.Protection{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != campaign.OutcomeShell {
		t.Fatalf("outcome = %s (%s), want shell", res.Outcome, res.Detail)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no flight-recorder events on the attack result")
	}
	// The hijacking ret lands inside the overflowed buffer: the recon'd
	// BufferAddr plus at most the payload length.
	var hijack bool
	for _, to := range retTargets(res.Trace) {
		if to >= tgt.BufferAddr && to < tgt.BufferAddr+512 {
			hijack = true
		}
	}
	if !hijack {
		t.Errorf("no ret into the injected buffer [%#x, %#x) in trace:\n%s",
			tgt.BufferAddr, tgt.BufferAddr+512, telemetry.FormatControlTrace(res.Trace))
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Kind != telemetry.CtlSyscall {
		t.Errorf("trace does not end at the shell syscall: %+v", last)
	}
}

// TestTraceMatchesRet2Libc: under W⊕X the x86 strategy pivots to libc,
// so the trace's hijacking ret must land exactly on the recon'd system()
// address — the gadget-chain address in the payload.
func TestTraceMatchesRet2Libc(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	telemetry.EnableTrace(1024)
	lab := NewLab()
	prot := campaign.Protection{WX: true}
	tgt, err := lab.Recon(isa.ArchX86S, prot)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lab.RunAttack(isa.ArchX86S, exploit.KindRet2Libc, prot)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != campaign.OutcomeShell {
		t.Fatalf("outcome = %s (%s), want shell", res.Outcome, res.Detail)
	}
	var toSystem bool
	for _, to := range retTargets(res.Trace) {
		if to == tgt.LibcSystem {
			toSystem = true
		}
	}
	if !toSystem {
		t.Errorf("no ret to libc system (%#x) in trace:\n%s",
			tgt.LibcSystem, telemetry.FormatControlTrace(res.Trace))
	}
}
