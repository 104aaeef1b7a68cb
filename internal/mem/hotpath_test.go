package mem

import "testing"

// TestCheckOverflowAt32BitBoundary is the regression test for the off+n
// overflow: a segment near the top of the address space plus a huge
// (attacker-controlled) access length used to wrap uint32 and pass the
// bounds check. Every access width and kind must fault instead.
func TestCheckOverflowAt32BitBoundary(t *testing.T) {
	m := New()
	// The highest mappable page-aligned segment: Map rejects ranges that
	// wrap, so end at 0xFFFFF000.
	if _, err := m.Map("top", 0xFFFFE000, 0x1000, PermRWX); err != nil {
		t.Fatal(err)
	}

	// n chosen so off+n wraps past 2^32: off = 0xFFF, n = 0xFFFFFFF0.
	addr := uint32(0xFFFFEFFF)
	if _, f := m.ReadBytes(addr, 0xFFFFFFF0); f == nil {
		t.Error("huge ReadBytes near 2^32 did not fault")
	}
	if f := m.WriteBytes(addr, make([]byte, 16)); f == nil {
		t.Error("WriteBytes spanning segment end did not fault")
	}

	// Width-typed accesses at the very last bytes: the last valid U32 is
	// at End-4; End-3..End-1 must fault without wrapping.
	end := uint32(0xFFFFF000)
	if _, f := m.ReadU32(end - 4); f != nil {
		t.Errorf("ReadU32 at last aligned word faulted: %v", f)
	}
	for _, a := range []uint32{end - 3, end - 2, end - 1} {
		if _, f := m.ReadU32(a); f == nil {
			t.Errorf("ReadU32(%#x) crossing segment end did not fault", a)
		}
		if f := m.WriteU32(a, 1); f == nil {
			t.Errorf("WriteU32(%#x) crossing segment end did not fault", a)
		}
	}
	if _, f := m.ReadU16(end - 1); f == nil {
		t.Error("ReadU16 at End-1 did not fault")
	}
	if v, f := m.ReadU8(end - 1); f != nil || v != 0 {
		t.Errorf("ReadU8 at last byte = %#x, %v", v, f)
	}

	// The bounds fault reports unmapped at the segment end, matching the
	// historical fault shape exploit transcripts depend on.
	_, f := m.ReadU32(end - 2)
	if f == nil || f.Kind != FaultUnmapped || f.Addr != end {
		t.Errorf("boundary fault = %+v, want unmapped at %#x", f, end)
	}
}

// TestFindEdgeCases covers the binary search and the per-access memo
// across empty spaces, first/last segments, and stale hints.
func TestFindEdgeCases(t *testing.T) {
	m := New()
	if m.Find(0) != nil || m.Find(0xFFFFFFFF) != nil {
		t.Error("Find on empty space returned a segment")
	}

	first, err := m.Map("first", 0x1000, 0x1000, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	last, err := m.Map("last", 0xFFFFE000, 0x1000, PermRW)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		addr uint32
		want *Segment
	}{
		{0x0FFF, nil},      // just below first
		{0x1000, first},    // first byte of first
		{0x1FFF, first},    // last byte of first
		{0x2000, nil},      // just past first
		{0x8000, nil},      // gap between segments
		{0xFFFFDFFF, nil},  // just below last
		{0xFFFFE000, last}, // first byte of last
		{0xFFFFEFFF, last}, // last byte of last
		{0xFFFFF000, nil},  // just past last
		{0xFFFFFFFF, nil},  // top of address space
	}
	for _, c := range cases {
		if got := m.Find(c.addr); got != c.want {
			t.Errorf("Find(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}

	// Alternate between segments so the memo goes stale every lookup; the
	// self-validating hint must never return the wrong segment.
	for i := 0; i < 8; i++ {
		if m.Find(0x1800) != first || m.Find(0xFFFFE800) != last {
			t.Fatal("alternating Find returned wrong segment")
		}
	}
}

// TestUnmapEdgeCases covers unmap of first/last/missing segments and
// unmap-then-map of the same range, including hint invalidation.
func TestUnmapEdgeCases(t *testing.T) {
	m := New()
	for _, s := range []struct {
		name string
		base uint32
	}{{"a", 0x1000}, {"b", 0x3000}, {"c", 0x5000}} {
		if _, err := m.Map(s.name, s.base, 0x1000, PermRW); err != nil {
			t.Fatal(err)
		}
	}

	// Warm the memo on the middle segment, then unmap it: lookups must
	// miss, not hit the stale slot.
	if m.Find(0x3800) == nil {
		t.Fatal("warmup find failed")
	}
	m.Unmap("b")
	if m.Find(0x3800) != nil {
		t.Error("Find returned unmapped segment")
	}
	if _, f := m.ReadU8(0x3800); f == nil || f.Kind != FaultUnmapped {
		t.Errorf("read of unmapped range = %v, want unmapped fault", f)
	}

	m.Unmap("a") // first
	m.Unmap("c") // last
	if len(m.Segments()) != 0 {
		t.Fatalf("segments remain after unmapping all: %v", m.Segments())
	}
	m.Unmap("missing") // no-op, must not panic

	// Remap the same range with different permissions.
	if _, err := m.Map("b2", 0x3000, 0x1000, PermRX); err != nil {
		t.Fatalf("remap of unmapped range: %v", err)
	}
	if f := m.WriteU8(0x3000, 1); f == nil || f.Kind != FaultProtection {
		t.Errorf("write to remapped RX = %v, want protection fault", f)
	}
}

// TestGenBumpsOnLayoutChanges pins the generation counter contract decode
// caches rely on: Map, Unmap, SetPerm and Reset each bump it; plain
// loads/stores do not.
func TestGenBumpsOnLayoutChanges(t *testing.T) {
	m := New()
	if m.Gen() == 0 {
		t.Fatal("generation must start nonzero")
	}
	g := m.Gen()
	if _, err := m.Map("a", 0x1000, 0x1000, PermRW); err != nil {
		t.Fatal(err)
	}
	if m.Gen() == g {
		t.Error("Map did not bump generation")
	}
	g = m.Gen()
	if f := m.WriteU32(0x1000, 42); f != nil {
		t.Fatal(f)
	}
	if _, f := m.ReadU32(0x1000); f != nil {
		t.Fatal(f)
	}
	if m.Gen() != g {
		t.Error("plain accesses must not bump generation")
	}
	if err := m.SetPerm("a", PermRX); err != nil {
		t.Fatal(err)
	}
	if m.Gen() == g {
		t.Error("SetPerm did not bump generation")
	}
	g = m.Gen()
	m.Unmap("a")
	if m.Gen() == g {
		t.Error("Unmap did not bump generation")
	}
}

// TestSealReset covers the recycle path: accessor writes since Seal are
// rolled back (copy-restore for populated segments, zero-fill for
// untouched ones), permissions return, and the generation bumps.
func TestSealReset(t *testing.T) {
	m := New()
	text, err := m.Map("text", 0x1000, 0x100, PermRX)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("stack", 0x8000, 0x1000, PermRW); err != nil {
		t.Fatal(err)
	}
	text.Populate(0, []byte{0xC3, 0x90, 0x90})

	if m.Reset() {
		t.Fatal("Reset before Seal must report false")
	}
	if m.Sealed() {
		t.Fatal("Sealed before Seal")
	}
	m.Seal()
	if !m.Sealed() {
		t.Fatal("Sealed() false after Seal")
	}

	// Scribble over the stack and flip the text permissions.
	if f := m.WriteU32(0x8010, 0xDEADBEEF); f != nil {
		t.Fatal(f)
	}
	if f := m.WriteU8(0x8FFF, 0x41); f != nil {
		t.Fatal(f)
	}
	if err := m.SetPerm("text", PermRWX); err != nil {
		t.Fatal(err)
	}
	if f := m.WriteU8(0x1001, 0xCC); f != nil {
		t.Fatal(f)
	}

	g := m.Gen()
	if !m.Reset() {
		t.Fatal("Reset failed")
	}
	if m.Gen() == g {
		t.Error("Reset did not bump generation")
	}
	if v, _ := m.ReadU32(0x8010); v != 0 {
		t.Errorf("stack word after Reset = %#x, want 0", v)
	}
	if v, _ := m.ReadU8(0x8FFF); v != 0 {
		t.Errorf("stack byte after Reset = %#x, want 0", v)
	}
	if m.Segment("text").Perm != PermRX {
		t.Errorf("text perm after Reset = %v, want rx", m.Segment("text").Perm)
	}
	if b, f := m.ReadBytes(0x1000, 3); f != nil || b[0] != 0xC3 || b[1] != 0x90 {
		t.Errorf("text after Reset = % x, %v", b, f)
	}

	// Reset is repeatable: a second round trip behaves identically.
	if f := m.WriteU32(0x8010, 7); f != nil {
		t.Fatal(f)
	}
	if !m.Reset() {
		t.Fatal("second Reset failed")
	}
	if v, _ := m.ReadU32(0x8010); v != 0 {
		t.Error("second Reset did not restore")
	}

	// A layout change invalidates the seal.
	if _, err := m.Map("late", 0x20000, 0x100, PermRW); err != nil {
		t.Fatal(err)
	}
	if m.Reset() {
		t.Error("Reset succeeded after segment set changed")
	}
}

// TestResealAndMove covers the re-layout path a recycle takes: a Seal
// after Reset keeps each untouched segment's baseline and folds only the
// writes since into it, a newly mapped segment gets its own baseline, and
// Move slides a segment without losing its contents or baseline.
func TestResealAndMove(t *testing.T) {
	m := New()
	got, err := m.Map("got", 0x1000, 0x100, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("stack", 0x8000, 0x1000, PermRW); err != nil {
		t.Fatal(err)
	}
	got.Populate(0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	m.Seal()

	// Re-lay out: rewrite one slot, map a new segment, move the stack,
	// then re-seal.
	if !m.Reset() {
		t.Fatal("Reset failed")
	}
	if f := m.WriteU32(0x1004, 0xAABBCCDD); f != nil {
		t.Fatal(f)
	}
	lib, err := m.Map("lib", 0x4000, 0x100, PermRX)
	if err != nil {
		t.Fatal(err)
	}
	lib.Populate(0, []byte{0xC3})
	if err := m.Move("stack", 0x6000); err != nil {
		t.Fatal(err)
	}
	if err := m.Move("stack", 0x3F80); err == nil {
		t.Error("Move onto an overlapping range succeeded")
	}
	if err := m.Move("nope", 0x9000); err == nil {
		t.Error("Move of an unknown segment succeeded")
	}
	m.Seal()

	// Scribble everywhere writable and rewind.
	if err := m.SetPerm("lib", PermRWX); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ addr, v uint32 }{{0x1000, 9}, {0x1004, 9}, {0x4000, 9}, {0x6FFC, 9}} {
		if f := m.WriteU32(w.addr, w.v); f != nil {
			t.Fatal(f)
		}
	}
	if !m.Reset() {
		t.Fatal("Reset after re-seal failed")
	}
	for _, w := range []struct{ addr, want uint32 }{
		{0x1000, 0x04030201}, {0x1004, 0xAABBCCDD}, {0x4000, 0xC3}, {0x6FFC, 0},
	} {
		if v, f := m.ReadU32(w.addr); f != nil || v != w.want {
			t.Errorf("after Reset [%#x] = %#x (%v), want %#x", w.addr, v, f, w.want)
		}
	}
	if m.Segment("lib").Perm != PermRX {
		t.Errorf("lib perm after Reset = %v, want r-x", m.Segment("lib").Perm)
	}
	if s := m.Find(0x6000); s == nil || s.Name != "stack" {
		t.Errorf("moved stack not found at its new base: %v", s)
	}
	if s := m.Find(0x8000); s != nil {
		t.Errorf("old stack range still mapped: %s", s.Name)
	}
}

// TestFetch32Truncation pins the arms fetch contract: a word that runs off
// the end of the segment is short (illegal instruction), not a fault.
func TestFetch32Truncation(t *testing.T) {
	m := New()
	if _, err := m.Map("text", 0x1000, 0x6, PermRX); err != nil {
		t.Fatal(err)
	}
	if _, _, short, f := m.Fetch32(0x1000); f != nil || short {
		t.Errorf("aligned fetch = short=%v fault=%v", short, f)
	}
	if _, _, short, f := m.Fetch32(0x1004); f != nil || !short {
		t.Errorf("truncated fetch = short=%v fault=%v, want short", short, f)
	}
	if _, _, _, f := m.Fetch32(0x2000); f == nil || f.Kind != FaultUnmapped {
		t.Errorf("unmapped fetch fault = %v", f)
	}
}
