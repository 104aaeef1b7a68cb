// Package isatest is the differential lockstep harness pinning the
// basic-block executors (isa.CPU.StepBlock) to the single-step
// interpreters they were specialized from. Two CPUs run identically
// constructed worlds: the subject advances through block dispatch, the
// reference single-steps the same number of retirements, and after every
// dispatch the harness compares the full architectural state — program
// counter, every register, the packed flag word, instruction counts, the
// terminal event, and the bytes of every memory range the execution
// could have written (per-segment dirty watermarks). Any divergence —
// a stale translation, a flag computed differently, a fault attributed
// to the wrong PC — fails with the exact dispatch it first appeared in.
//
// The harness is driven two ways: seeded random program generators (see
// gen.go) covering straight-line and branchy code far outside what the
// victim firmware exercises, and the recorded victim images themselves
// (see victim_test.go), where whole exploit transcripts are replayed
// under both executors via kernel.Config.SingleStep.
package isatest

import (
	"bytes"
	"testing"

	"connlab/internal/isa"
	"connlab/internal/mem"
)

// flagser is the flag-word accessor both lab CPUs export.
type flagser interface{ FlagWord() uint32 }

// NoCap disables the per-dispatch instruction cap.
const NoCap = ^uint64(0)

// DefaultCaps is the dispatch-cap cycle Lockstep uses when the caller
// passes none: mostly unbounded blocks with periodic 1-, 2- and
// 3-instruction truncations, so state is also compared at sub-block
// granularity (a truncated dispatch exits mid-block through the same
// retirement path a budget expiry takes in the kernel).
var DefaultCaps = []uint64{NoCap, NoCap, NoCap, 1, NoCap, 2, NoCap, 3}

// Lockstep drives blk through block dispatch and ref through single-step
// until maxInstrs instructions retire or a terminal (fault) event stops
// both, comparing full architectural state after every dispatch. The two
// CPUs must have been constructed identically over identically built
// (not Cloned — dirty watermarks must match) memories. caps cycles
// through per-dispatch instruction limits (nil uses DefaultCaps). It
// returns the number of instructions retired.
func Lockstep(t testing.TB, ref, blk isa.CPU, maxInstrs uint64, caps []uint64) uint64 {
	t.Helper()
	if len(caps) == 0 {
		caps = DefaultCaps
	}
	var retired uint64
	for dispatch := 0; retired < maxInstrs; dispatch++ {
		limit := caps[dispatch%len(caps)]
		if rem := maxInstrs - retired; limit > rem {
			limit = rem
		}
		before := blk.InstrCount()
		evB := blk.StepBlock(limit)
		k := blk.InstrCount() - before
		if k > limit {
			t.Fatalf("dispatch %d: StepBlock(%d) retired %d instructions", dispatch, limit, k)
		}
		retired += k

		// The reference retires the same k instructions; a fault (which
		// retires nothing) takes one extra step to surface.
		steps := k
		if evB.Kind == isa.EventFault || evB.Kind == isa.EventCFIViolation {
			steps = k + 1
		}
		if steps == 0 {
			t.Fatalf("dispatch %d: StepBlock retired nothing with non-fault event %+v", dispatch, evB)
		}
		var evR isa.Event
		for j := uint64(0); j < steps; j++ {
			evR = ref.Step()
			if j < steps-1 && evR.Kind != isa.EventRetired {
				t.Fatalf("dispatch %d: reference stopped after %d/%d steps with %+v (block event %+v)",
					dispatch, j+1, steps, evR, evB)
			}
		}

		compareEvents(t, dispatch, evR, evB)
		CompareState(t, ref, blk)
		compareDirty(t, ref.Mem(), blk.Mem())
		if t.Failed() {
			t.Fatalf("dispatch %d: executors diverged at pc %#08x after %d instructions",
				dispatch, blk.PC(), retired)
		}
		if evB.Kind == isa.EventFault || evB.Kind == isa.EventCFIViolation {
			break
		}
		// Syscalls are compared like any other event and execution
		// continues at the next PC; the harness services nothing, which
		// keeps both worlds identical by construction.
	}
	CompareMem(t, ref.Mem(), blk.Mem())
	return retired
}

// compareEvents requires the terminal events of a dispatch to agree in
// kind, PC, fault detail and the illegal flag.
func compareEvents(t testing.TB, dispatch int, evR, evB isa.Event) {
	t.Helper()
	if evR.Kind != evB.Kind || evR.PC != evB.PC || evR.Illegal != evB.Illegal || evR.Reason != evB.Reason {
		t.Errorf("dispatch %d: event mismatch: single-step %+v, block %+v", dispatch, evR, evB)
		return
	}
	switch {
	case (evR.Fault == nil) != (evB.Fault == nil):
		t.Errorf("dispatch %d: fault presence mismatch: single-step %+v, block %+v", dispatch, evR, evB)
	case evR.Fault != nil && *evR.Fault != *evB.Fault:
		t.Errorf("dispatch %d: fault detail mismatch: single-step %+v, block %+v", dispatch, *evR.Fault, *evB.Fault)
	}
}

// CompareState requires the full architectural register state of the two
// CPUs to agree: PC, every general-purpose register, the packed flag
// word, and the retired-instruction count.
func CompareState(t testing.TB, ref, blk isa.CPU) {
	t.Helper()
	if ref.PC() != blk.PC() {
		t.Errorf("pc: single-step %#08x, block %#08x", ref.PC(), blk.PC())
	}
	for i := 0; i < ref.NumRegs(); i++ {
		if a, b := ref.Reg(i), blk.Reg(i); a != b {
			t.Errorf("reg %s: single-step %#08x, block %#08x", ref.RegName(i), a, b)
		}
	}
	if a, b := ref.(flagser).FlagWord(), blk.(flagser).FlagWord(); a != b {
		t.Errorf("flags: single-step %#04b, block %#04b", a, b)
	}
	if a, b := ref.InstrCount(), blk.InstrCount(); a != b {
		t.Errorf("instructions retired: single-step %d, block %d", a, b)
	}
}

// compareDirty requires the dirty watermarks and the bytes within them
// to agree for every segment — the cheap per-dispatch memory check.
func compareDirty(t testing.TB, ref, blk *mem.Memory) {
	t.Helper()
	rs, bs := ref.Segments(), blk.Segments()
	if len(rs) != len(bs) {
		t.Errorf("segment count: single-step %d, block %d", len(rs), len(bs))
		return
	}
	for i, r := range rs {
		b := bs[i]
		rlo, rhi := r.DirtyRange()
		blo, bhi := b.DirtyRange()
		if rlo != blo || rhi != bhi {
			t.Errorf("segment %s dirty range: single-step [%#x,%#x), block [%#x,%#x)",
				r.Name, rlo, rhi, blo, bhi)
			continue
		}
		if rhi > rlo && !bytes.Equal(r.Data[rlo:rhi], b.Data[blo:bhi]) {
			t.Errorf("segment %s: dirty bytes diverge at offset %#x",
				r.Name, rlo+uint32(firstDiff(r.Data[rlo:rhi], b.Data[blo:bhi])))
		}
	}
}

// CompareMem requires the two address spaces to agree completely:
// segment geometry, permissions, and every byte.
func CompareMem(t testing.TB, ref, blk *mem.Memory) {
	t.Helper()
	rs, bs := ref.Segments(), blk.Segments()
	if len(rs) != len(bs) {
		t.Errorf("segment count: single-step %d, block %d", len(rs), len(bs))
		return
	}
	for i, r := range rs {
		b := bs[i]
		if r.Name != b.Name || r.Base != b.Base || r.Perm != b.Perm || r.Size() != b.Size() {
			t.Errorf("segment %d: single-step %s@%#x+%#x %v, block %s@%#x+%#x %v",
				i, r.Name, r.Base, r.Size(), r.Perm, b.Name, b.Base, b.Size(), b.Perm)
			continue
		}
		if !bytes.Equal(r.Data, b.Data) {
			t.Errorf("segment %s: bytes diverge at offset %#x", r.Name, firstDiff(r.Data, b.Data))
		}
	}
}

// firstDiff returns the index of the first differing byte (len if equal).
func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
