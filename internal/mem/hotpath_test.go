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

// TestFindEdgeCases covers the binary search across empty spaces and
// first/last segments, and the read window moving between segments.
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

	// Alternate between segments so every read moves the read window;
	// each must still read its own segment.
	first.Data[0x800], last.Data[0x800] = 1, 2
	for i := 0; i < 8; i++ {
		if a, _ := m.ReadU8(0x1800); a != 1 {
			t.Fatal("alternating read returned the wrong segment's byte")
		}
		if b, _ := m.ReadU8(0xFFFFE800); b != 2 {
			t.Fatal("alternating read returned the wrong segment's byte")
		}
	}
}

// TestUnmapEdgeCases covers unmap of first/last/missing segments and
// unmap-then-map of the same range.
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

	// Find the middle segment, then unmap it: lookups must miss.
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

// TestGenBumpsOnLayoutChanges pins the code generation contract the
// block cache relies on: Map, Unmap and a SetPerm that makes a segment
// non-writable each bump it; plain loads/stores do not.
func TestGenBumpsOnLayoutChanges(t *testing.T) {
	m := New()
	if m.CodeGen() == 0 {
		t.Fatal("generation must start nonzero")
	}
	g := m.CodeGen()
	if _, err := m.Map("a", 0x1000, 0x1000, PermRW); err != nil {
		t.Fatal(err)
	}
	if m.CodeGen() == g {
		t.Error("Map did not bump generation")
	}
	g = m.CodeGen()
	if f := m.WriteU32(0x1000, 42); f != nil {
		t.Fatal(f)
	}
	if _, f := m.ReadU32(0x1000); f != nil {
		t.Fatal(f)
	}
	if m.CodeGen() != g {
		t.Error("plain accesses must not bump generation")
	}
	if err := m.SetPerm("a", PermRX); err != nil {
		t.Fatal(err)
	}
	if m.CodeGen() == g {
		t.Error("SetPerm did not bump generation")
	}
	g = m.CodeGen()
	m.Unmap("a")
	if m.CodeGen() == g {
		t.Error("Unmap did not bump generation")
	}
}

// TestSealReset covers the recycle path: accessor writes since Seal are
// rolled back (copy-restore for populated segments, zero-fill for
// untouched ones), permissions return, and, since the text comes back
// non-writable, the code generation bumps.
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
	m.Seal()

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

	g := m.CodeGen()
	if !m.Reset() {
		t.Fatal("Reset failed")
	}
	if m.CodeGen() == g {
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
	if err := m.Move(0x6000, m.Segment("stack")); err != nil {
		t.Fatal(err)
	}
	if err := m.Move(0x3F80, m.Segment("stack")); err == nil {
		t.Error("Move onto an overlapping range succeeded")
	}
	if err := m.Move(0x9000, m.Segment("nope")); err == nil {
		t.Error("Move of an unknown segment succeeded")
	}
	gone, err := m.Map("gone", 0x9000, 0x100, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	m.Unmap("gone")
	if err := m.Move(0xA000, gone); err == nil || gone.Base != 0x9000 {
		t.Errorf("Move of an unmapped segment: %v, base %#x", err, gone.Base)
	}
	if err := m.Move(0x7000, m.Segment("stack"), m.Segment("stack")); err == nil {
		t.Error("Move of a group naming the stack twice succeeded")
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

// TestWindowInvalidation pins when an access window must stop hitting:
// after a hit, each layout, permission or policy change is visible to the
// very next access, through the window hit and the checked accessor alike.
func TestWindowInvalidation(t *testing.T) {
	mapped := func(t *testing.T, perm Perm) *Memory {
		t.Helper()
		m := New()
		if _, err := m.Map("a", 0x1000, 0x100, perm); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Map("b", 0x3000, 0x100, PermRW); err != nil {
			t.Fatal(err)
		}
		return m
	}
	// warm makes the read and write windows hit on a.
	warm := func(t *testing.T, m *Memory) {
		t.Helper()
		if f := m.WriteU8(0x1010, 7); f != nil {
			t.Fatal(f)
		}
		if _, f := m.ReadU8(0x1010); f != nil {
			t.Fatal(f)
		}
		if _, ok := m.Load8(0x1010); !ok {
			t.Fatal("read window missed after a read")
		}
		if !m.Store8(0x1010, 7) {
			t.Fatal("write window missed after a write")
		}
	}
	wantFault := func(t *testing.T, what string, f *Fault, kind FaultKind) {
		t.Helper()
		if f == nil || f.Kind != kind {
			t.Errorf("%s: fault %v, want %v", what, f, kind)
		}
	}

	t.Run("SetPermDropsRead", func(t *testing.T) {
		m := mapped(t, PermRW)
		warm(t, m)
		if err := m.SetPerm("a", PermWrite); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Load8(0x1010); ok {
			t.Error("Load8 hit after read permission was dropped")
		}
		if _, ok := m.Load32(0x1010); ok {
			t.Error("Load32 hit after read permission was dropped")
		}
		_, f := m.ReadU8(0x1010)
		wantFault(t, "ReadU8", f, FaultProtection)
	})
	t.Run("SetPermDropsWrite", func(t *testing.T) {
		m := mapped(t, PermRW)
		warm(t, m)
		if err := m.SetPerm("a", PermRead); err != nil {
			t.Fatal(err)
		}
		if m.Store8(0x1010, 9) || m.Store32(0x1010, 9) {
			t.Error("store hit after write permission was dropped")
		}
		wantFault(t, "WriteU8", m.WriteU8(0x1010, 9), FaultProtection)
		if v, _ := m.ReadU8(0x1010); v != 7 {
			t.Errorf("byte = %d after refused stores, want 7", v)
		}
	})
	t.Run("Move", func(t *testing.T) {
		m := mapped(t, PermRW)
		warm(t, m)
		if err := m.Move(0x5000, m.Segment("a")); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Load8(0x1010); ok {
			t.Error("Load8 hit the old address after Move")
		}
		if m.Store8(0x1010, 9) {
			t.Error("Store8 hit the old address after Move")
		}
		_, f := m.ReadU8(0x1010)
		wantFault(t, "ReadU8 at the old address", f, FaultUnmapped)
		if v, f := m.ReadU8(0x5010); f != nil || v != 7 {
			t.Errorf("ReadU8 at the new address = %d, %v; want 7", v, f)
		}
		if v, ok := m.Load8(0x5010); !ok || v != 7 {
			t.Errorf("Load8 at the new address = %d, %v; want a hit reading 7", v, ok)
		}
	})
	t.Run("Unmap", func(t *testing.T) {
		m := mapped(t, PermRWX)
		warm(t, m)
		if _, _, f := m.FetchWindow(0x1000, 4); f != nil {
			t.Fatal(f)
		}
		m.Unmap("a")
		if _, ok := m.Load8(0x1010); ok {
			t.Error("Load8 hit an unmapped segment")
		}
		if m.Store8(0x1010, 9) {
			t.Error("Store8 hit an unmapped segment")
		}
		if _, _, ok := m.CodeWindow(0x1000, 4); ok {
			t.Error("CodeWindow hit an unmapped segment")
		}
		_, f := m.ReadU8(0x1010)
		wantFault(t, "ReadU8", f, FaultUnmapped)
		_, _, f = m.FetchWindow(0x1000, 4)
		wantFault(t, "FetchWindow", f, FaultUnmapped)
	})
	t.Run("ResetRestoresSealedPerm", func(t *testing.T) {
		m := mapped(t, PermRX)
		m.Seal()
		if err := m.SetPerm("a", PermRWX); err != nil {
			t.Fatal(err)
		}
		warm(t, m)
		if !m.Reset() {
			t.Fatal("Reset failed")
		}
		if m.Store8(0x1010, 9) || m.Store32(0x1010, 9) {
			t.Error("store hit a segment Reset made read-only")
		}
		wantFault(t, "WriteU8", m.WriteU8(0x1010, 9), FaultProtection)
	})
	t.Run("SetWXAfterFetch", func(t *testing.T) {
		m := mapped(t, PermRWX)
		if _, _, short, f := m.Fetch32(0x1000); f != nil || short {
			t.Fatalf("Fetch32 = short=%v, %v", short, f)
		}
		if _, _, ok := m.Code32(0x1000); !ok {
			t.Fatal("fetch window missed after a fetch")
		}
		m.SetWX(true)
		if _, _, ok := m.Code32(0x1000); ok {
			t.Error("Code32 hit a writable segment under W⊕X")
		}
		if _, _, ok := m.CodeWindow(0x1000, 4); ok {
			t.Error("CodeWindow hit a writable segment under W⊕X")
		}
		_, _, _, f := m.Fetch32(0x1000)
		wantFault(t, "Fetch32", f, FaultProtection)
		_, _, f = m.FetchWindow(0x1000, 4)
		wantFault(t, "FetchWindow", f, FaultProtection)
	})
}

// TestAccessorsDoNotAllocate pins the no-allocation contract on both
// sides of the access windows: every window hit, every accessor resolving
// inside its window, and every accessor whose window misses but whose
// access succeeds. ReadBytes and ReadCString allocate their result and
// are left out.
func TestAccessorsDoNotAllocate(t *testing.T) {
	m := New()
	for _, s := range []struct {
		name string
		base uint32
	}{{"a", 0x1000}, {"b", 0x3000}} {
		if _, err := m.Map(s.name, s.base, 0x100, PermRWX); err != nil {
			t.Fatal(err)
		}
	}
	buf := []byte{1, 2, 3, 4}
	var (
		v8  uint8
		v16 uint16
		v32 uint32
		ok  bool
		win []byte
	)
	accessors := []func(addr uint32){
		func(addr uint32) { v8, _ = m.ReadU8(addr) },
		func(addr uint32) { _ = m.WriteU8(addr, v8) },
		func(addr uint32) { v16, _ = m.ReadU16(addr) },
		func(addr uint32) { _ = m.WriteU16(addr, v16) },
		func(addr uint32) { v32, _ = m.ReadU32(addr) },
		func(addr uint32) { _ = m.WriteU32(addr, v32) },
		func(addr uint32) { _ = m.WriteBytes(addr, buf) },
		func(addr uint32) { win, _, _ = m.FetchWindow(addr, 8) },
		func(addr uint32) { v32, _, _, _ = m.Fetch32(addr) },
		func(addr uint32) { win = m.Span(addr, 0x20, AccessRead) },
		func(addr uint32) { m.Wrote(addr, uint32(len(m.Span(addr, 0x20, AccessWrite)))) },
	}
	hits := func(addr uint32) {
		v8, ok = m.Load8(addr)
		ok = m.Store8(addr, v8)
		v32, ok = m.Load32(addr)
		ok = m.Store32(addr, v32)
		v32, _, ok = m.Code32(addr)
		win, _, ok = m.CodeWindow(addr, 8)
	}
	// Touching only a, every window stays put and every call hits.
	if n := testing.AllocsPerRun(100, func() {
		for _, acc := range accessors {
			acc(0x1010)
		}
		hits(0x1010)
	}); n != 0 {
		t.Errorf("window hits allocate %.1f times per run", n)
	}
	// Alternating a and b moves the accessor's window on every call.
	if n := testing.AllocsPerRun(100, func() {
		for _, acc := range accessors {
			acc(0x1010)
			acc(0x3010)
		}
	}); n != 0 {
		t.Errorf("window misses allocate %.1f times per run", n)
	}
	_, _, _ = ok, win, v16
}
