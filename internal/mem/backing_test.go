//go:build go1.24

package mem

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// freeListHas reports whether the backing starting at p is on the free
// list.
func freeListHas(p unsafe.Pointer) bool {
	backings.Lock()
	defer backings.Unlock()
	for _, b := range backings.free {
		if unsafe.Pointer(&b[0]) == p {
			return true
		}
	}
	return false
}

// dirtyBigSegments maps a stack and a heap of BigSegment bytes and dirties
// them every way a process can: accessors, window stores, a write span,
// Populate, Seal/Reset cycles that restore a nonzero baseline, and Move.
// It returns where their backings start.
func dirtyBigSegments(t *testing.T) (stack, heap unsafe.Pointer) {
	m := New()
	st, err := m.Map("stack", 0x7EF0_0000, BigSegment, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := m.Map("heap", 0x0900_0000, BigSegment, PermRWX)
	if err != nil {
		t.Fatal(err)
	}
	if st.stopRelease == nil || hp.stopRelease == nil {
		t.Fatal("the free list does not manage the new backings")
	}
	hp.Populate(0x10, []byte("arena header"))
	st.Populate(BigSegment-4, []byte{1, 2, 3, 4})
	m.Seal() // the populated bytes become the baseline
	if f := m.WriteU32(0x0900_8000, 0xDEADBEEF); f != nil {
		t.Fatal(f)
	}
	if !m.Store8(0x0900_8004, 0x55) {
		t.Fatal("store window missed")
	}
	if f := m.WriteBytes(0x7EF0_0100, []byte("frame")); f != nil {
		t.Fatal(f)
	}
	m.Reset() // restores the nonzero baseline, re-zeroes the rest
	span := m.Span(0x0900_4000, 64, AccessWrite)
	for i := range span {
		span[i] = 0xAA
	}
	m.Wrote(0x0900_4000, uint32(len(span)))
	m.Seal()
	if err := m.Move(0x7E00_0000, "stack"); err != nil {
		t.Fatal(err)
	}
	if f := m.WriteU32(0x7E00_0000+BigSegment-0x200, 0x12345678); f != nil {
		t.Fatal(f) // left dirty: the live range at the drop
	}
	return unsafe.Pointer(&st.Data[0]), unsafe.Pointer(&hp.Data[0])
}

// TestReusedBackingIsZero: once its Memory is collected, a big segment's
// backing returns to the free list with every byte the segment dirtied
// cleared, so the segment Map makes from it is all zero and clean.
func TestReusedBackingIsZero(t *testing.T) {
	stack, heap := dirtyBigSegments(t)
	for i := 0; !(freeListHas(stack) && freeListHas(heap)); i++ {
		if i == 200 {
			t.Fatal("the dropped Memory's backings did not return to the free list")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	m := New()
	found := 0
	for i := uint32(0); found < 2 && i < maxBackings; i++ {
		s, err := m.Map("seg", 0x1000_0000+i*BigSegment, BigSegment, PermRW)
		if err != nil {
			t.Fatal(err)
		}
		if p := unsafe.Pointer(&s.Data[0]); p != stack && p != heap {
			continue
		}
		found++
		for off, b := range s.Data {
			if b != 0 {
				t.Fatalf("reused backing: byte %#x is %#x", off, b)
			}
		}
		if lo, hi := s.DirtyRange(); lo < hi {
			t.Errorf("reused backing: dirty range [%#x,%#x)", lo, hi)
		}
	}
	if found != 2 {
		t.Errorf("Map drew %d of the 2 returned backings", found)
	}
}

// TestBackingBound: the free list never manages more than maxBackings
// backings; Map past the bound still returns a zeroed, unmanaged
// backing, and Unmap takes a managed one off the books.
func TestBackingBound(t *testing.T) {
	m := New()
	ours := 0
	for i := uint32(0); i <= maxBackings; i++ {
		s, err := m.Map(fmt.Sprint("seg", i), 0x1000_0000+i*BigSegment, BigSegment, PermRW)
		if err != nil {
			t.Fatal(err)
		}
		if s.stopRelease != nil {
			ours++
		}
	}
	backings.Lock()
	managed := backings.managed
	backings.Unlock()
	if managed > maxBackings || ours > maxBackings {
		t.Errorf("%d backings managed (%d of them ours) after %d maps", managed, ours, maxBackings+1)
	}
	for i := uint32(0); i <= maxBackings; i++ {
		m.Unmap(fmt.Sprint("seg", i))
	}
	backings.Lock()
	after := backings.managed
	backings.Unlock()
	if after != managed-ours {
		t.Errorf("managed backings: %d with ours mapped, %d after unmapping our %d", managed, after, ours)
	}
}
