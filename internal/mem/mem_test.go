package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func newTestMem(t *testing.T) *Memory {
	t.Helper()
	m := New()
	if _, err := m.Map("text", 0x1000, 0x1000, PermRX); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("data", 0x4000, 0x1000, PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("stack", 0x8000, 0x1000, PermRWX); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapRejectsOverlap(t *testing.T) {
	m := newTestMem(t)
	cases := []struct {
		base, size uint32
	}{
		{0x1000, 0x10},  // exact start
		{0x1FFF, 0x10},  // tail overlap
		{0x0FFF, 0x2},   // head overlap
		{0x0, 0x10000},  // engulfing
		{0x4800, 0x100}, // inside
	}
	for _, c := range cases {
		if _, err := m.Map("x", c.base, c.size, PermRW); err == nil {
			t.Errorf("Map(%#x, %#x) did not report overlap", c.base, c.size)
		}
	}
}

func TestMapRejectsDegenerate(t *testing.T) {
	m := New()
	if _, err := m.Map("zero", 0x1000, 0, PermRW); err == nil {
		t.Error("zero-size map accepted")
	}
	if _, err := m.Map("wrap", 0xFFFFF000, 0x2000, PermRW); err == nil {
		t.Error("wrapping map accepted")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := newTestMem(t)
	if f := m.WriteU32(0x4000, 0xDEADBEEF); f != nil {
		t.Fatal(f)
	}
	v, f := m.ReadU32(0x4000)
	if f != nil || v != 0xDEADBEEF {
		t.Fatalf("ReadU32 = %#x, %v", v, f)
	}
	// Little-endian byte order.
	b, f := m.ReadU8(0x4000)
	if f != nil || b != 0xEF {
		t.Fatalf("ReadU8 = %#x, %v", b, f)
	}
	h, f := m.ReadU16(0x4002)
	if f != nil || h != 0xDEAD {
		t.Fatalf("ReadU16 = %#x, %v", h, f)
	}
	if f := m.WriteU16(0x4004, 0x1234); f != nil {
		t.Fatal(f)
	}
	if f := m.WriteU8(0x4006, 0x56); f != nil {
		t.Fatal(f)
	}
	bs, f := m.ReadBytes(0x4004, 3)
	if f != nil || bs[0] != 0x34 || bs[1] != 0x12 || bs[2] != 0x56 {
		t.Fatalf("ReadBytes = %v, %v", bs, f)
	}
}

func TestFaultKinds(t *testing.T) {
	m := newTestMem(t)

	// Unmapped.
	if _, f := m.ReadU32(0x100); f == nil || f.Kind != FaultUnmapped {
		t.Errorf("unmapped read fault = %v", f)
	}
	// Write to read-exec segment.
	if f := m.WriteU8(0x1000, 1); f == nil || f.Kind != FaultProtection || f.Access != AccessWrite {
		t.Errorf("text write fault = %v", f)
	}
	// Exec from non-exec segment.
	if _, _, f := m.FetchWindow(0x4000, 4); f == nil || f.Access != AccessExec {
		t.Errorf("data fetch fault = %v", f)
	}
	// Access spanning past segment end.
	if _, f := m.ReadU32(0x1FFE); f == nil || f.Kind != FaultUnmapped {
		t.Errorf("spanning read fault = %v", f)
	}
	// Fault is an error with useful text.
	_, f := m.ReadU8(0x0)
	var err error = f
	if err.Error() == "" {
		t.Error("empty fault message")
	}
}

func TestWXPolicy(t *testing.T) {
	m := newTestMem(t)
	if f := m.WriteU8(0x8000, 0x90); f != nil {
		t.Fatal(f)
	}
	// Stack is RWX: executable while W⊕X is off.
	if _, _, f := m.FetchWindow(0x8000, 1); f != nil {
		t.Fatalf("fetch from rwx stack without W⊕X: %v", f)
	}
	m.SetWX(true)
	if !m.WX() {
		t.Fatal("WX not reported")
	}
	if _, _, f := m.FetchWindow(0x8000, 1); f == nil || f.Kind != FaultProtection {
		t.Fatalf("W⊕X did not block writable fetch: %v", f)
	}
	// Pure RX text still executes.
	if _, _, f := m.FetchWindow(0x1000, 1); f != nil {
		t.Fatalf("W⊕X blocked text fetch: %v", f)
	}
}

func TestFetchTruncatesAtSegmentEnd(t *testing.T) {
	m := newTestMem(t)
	b, _, f := m.FetchWindow(0x1FFC, 16)
	if f != nil {
		t.Fatal(f)
	}
	if len(b) != 4 {
		t.Fatalf("fetch near end returned %d bytes, want 4", len(b))
	}
}

func TestFindAndSegments(t *testing.T) {
	m := newTestMem(t)
	if s := m.Find(0x1800); s == nil || s.Name != "text" {
		t.Errorf("Find(0x1800) = %v", s)
	}
	if s := m.Find(0x2000); s != nil {
		t.Errorf("Find(end) = %v, want nil", s)
	}
	if s := m.Find(0xFFF); s != nil {
		t.Errorf("Find(before) = %v, want nil", s)
	}
	segs := m.Segments()
	if len(segs) != 3 || segs[0].Name != "text" || segs[2].Name != "stack" {
		t.Errorf("Segments() = %v", segs)
	}
	if m.Segment("data") == nil || m.Segment("nope") != nil {
		t.Error("Segment lookup broken")
	}
}

func TestUnmapAndSetPerm(t *testing.T) {
	m := newTestMem(t)
	m.Unmap("data")
	if _, f := m.ReadU8(0x4000); f == nil {
		t.Error("read from unmapped segment succeeded")
	}
	if err := m.SetPerm("stack", PermRW); err != nil {
		t.Fatal(err)
	}
	if _, _, f := m.FetchWindow(0x8000, 1); f == nil {
		t.Error("fetch after dropping exec permission succeeded")
	}
	if err := m.SetPerm("gone", PermRW); err == nil {
		t.Error("SetPerm on missing segment succeeded")
	}
	m.Unmap("gone") // no-op must not panic
}

func TestReadCString(t *testing.T) {
	m := newTestMem(t)
	if f := m.WriteBytes(0x4000, []byte("hello\x00world")); f != nil {
		t.Fatal(f)
	}
	s, f := m.ReadCString(0x4000, 64)
	if f != nil || s != "hello" {
		t.Fatalf("ReadCString = %q, %v", s, f)
	}
	// Max cap truncates.
	s, f = m.ReadCString(0x4000, 3)
	if f != nil || s != "hel" {
		t.Fatalf("capped ReadCString = %q, %v", s, f)
	}
	// Running off the segment faults.
	if f := m.WriteBytes(0x4FF0, []byte("0123456789abcdef")); f != nil {
		t.Fatal(f)
	}
	if _, f := m.ReadCString(0x4FF0, 64); f == nil {
		t.Error("ReadCString past segment end succeeded")
	}
}

// TestQuickU32RoundTrip: any aligned or unaligned in-range write reads
// back identically.
func TestQuickU32RoundTrip(t *testing.T) {
	m := newTestMem(t)
	prop := func(off uint16, v uint32) bool {
		addr := 0x4000 + uint32(off)%0xFFC
		if f := m.WriteU32(addr, v); f != nil {
			return false
		}
		got, f := m.ReadU32(addr)
		return f == nil && got == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickBytesRoundTrip: WriteBytes/ReadBytes agree for random slices.
func TestQuickBytesRoundTrip(t *testing.T) {
	m := newTestMem(t)
	prop := func(off uint16, data []byte) bool {
		if len(data) > 256 {
			data = data[:256]
		}
		addr := 0x4000 + uint32(off)%0xE00
		if f := m.WriteBytes(addr, data); f != nil {
			return false
		}
		got, f := m.ReadBytes(addr, uint32(len(data)))
		if f != nil || len(got) != len(data) {
			return len(data) == 0 && f == nil
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickOutOfRangeAlwaysFaults: reads outside every segment never
// succeed and always classify as unmapped.
func TestQuickOutOfRangeAlwaysFaults(t *testing.T) {
	m := newTestMem(t)
	prop := func(addr uint32) bool {
		inside := (addr >= 0x1000 && addr < 0x2000) ||
			(addr >= 0x4000 && addr < 0x5000) ||
			(addr >= 0x8000 && addr < 0x9000)
		_, f := m.ReadU8(addr)
		if inside {
			return f == nil
		}
		return f != nil && f.Kind == FaultUnmapped
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPermString(t *testing.T) {
	cases := map[Perm]string{
		0: "---", PermRead: "r--", PermRW: "rw-", PermRX: "r-x", PermRWX: "rwx",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if AccessRead.String() != "read" || AccessWrite.String() != "write" || AccessExec.String() != "exec" {
		t.Error("Access.String broken")
	}
	if FaultUnmapped.String() != "unmapped" || FaultProtection.String() != "protection" {
		t.Error("FaultKind.String broken")
	}
}

func TestErrorsAsFault(t *testing.T) {
	m := newTestMem(t)
	_, f := m.ReadU8(0)
	var target *Fault
	if !errors.As(error(f), &target) {
		t.Error("fault does not unwrap with errors.As")
	}
}
