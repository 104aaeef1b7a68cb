package arms

import (
	"testing"

	"connlab/internal/isa"
	"connlab/internal/mem"
	"connlab/internal/telemetry"
)

// loopCPU builds the standard warm-loop CPU of the zero-alloc tests:
// load/add/store plus push/pop plus a backwards branch.
func loopCPU(t *testing.T) *CPU {
	t.Helper()
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

// TestStepZeroAllocsTelemetryOff pins the observability contract: with
// telemetry disabled — including after an enable/disable cycle, the
// worst case for leftover instrumentation — the hot loop still allocates
// nothing per instruction. The flight recorder costs one nil-check.
func TestStepZeroAllocsTelemetryOff(t *testing.T) {
	telemetry.Enable()
	telemetry.Disable()
	c := loopCPU(t)
	c.SetRecorder(nil) // the disabled default, stated explicitly
	for i := 0; i < 64; i++ {
		stepRetired(t, c)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if ev := c.Step(); ev.Kind != isa.EventRetired {
			t.Fatal("step did not retire")
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %.1f objects per instruction with telemetry off, want 0", allocs)
	}
}

// TestStepZeroAllocsRecorderOn: even with the flight recorder attached
// and a bl / bx lr pair firing it every loop iteration, Step stays
// allocation-free — Record writes into a pre-sized ring.
func TestStepZeroAllocsRecorderOn(t *testing.T) {
	m := mem.New()
	text, err := m.Map("text", 0x1000, 0x1000, mem.PermRX)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("stack", 0x8000, 0x1000, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	a := NewAsm()
	a.Label("loop").
		BLLabel("fn").
		BAlways("loop").
		Label("fn").
		BX(LR)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	copy(text.Data, code.Bytes)
	c := New(m)
	c.SetPC(0x1000)
	c.SetSP(0x8F00)
	rec := telemetry.NewControlRecorder(64)
	c.SetRecorder(rec)
	for i := 0; i < 64; i++ {
		stepRetired(t, c)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if ev := c.Step(); ev.Kind != isa.EventRetired {
			t.Fatal("step did not retire")
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %.1f objects per instruction with the recorder on, want 0", allocs)
	}
	if rec.Total() == 0 {
		t.Fatal("recorder saw no control transfers from the bl/bx loop")
	}
	var calls int
	for _, ev := range rec.Events() {
		if ev.Kind == telemetry.CtlCall {
			calls++
		}
	}
	if calls == 0 {
		t.Error("recorder saw no bl calls")
	}
}
