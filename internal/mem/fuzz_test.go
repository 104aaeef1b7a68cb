package mem

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzMemoryOps decodes its input into a sequence of layout changes (Map,
// Unmap, drop-and-remap, Move of one segment or a group, Patch, SetPerm,
// SetWX, Seal, Reset) and accesses of every width and kind, and checks
// each access against a window-free oracle: a linear
// scan of Segments() applying the bounds, permission and W⊕X rules, with
// values read straight from the segment's Data. Value, fault (kind,
// access, address, segment) and every segment's DirtyRange must agree
// after every step, so an access window that outlives the layout,
// permissions or policy it was checked against shows up as a divergence.
// The window hits (Load8, ..., CodeWindow) may miss at any time, but a
// hit must be an access the oracle allows, with the oracle's result. A
// Span must alias exactly the bytes the oracle allows from its address
// up to the segment's end, and stores through a write span reported with
// Wrote must dirty exactly those bytes. Across every step that leaves
// CodeGen unchanged, no non-writable segment may move, change its
// permissions or bytes, and no segment may become non-writable. A Move
// must succeed exactly when the oracle's overlap and wrap scan allows it
// and then shift every moved segment by the same delta, bytes,
// permissions and stamp unchanged. Every segment's Stamp must change
// exactly when its permissions change or, while it is non-writable before
// or after the step, its bytes do; a new segment's stamp is one never
// seen before, and a stamp that changes other than by Patch voids the
// segment's sites and pieces.
func FuzzMemoryOps(f *testing.F) {
	f.Add([]byte{
		0, 0, 0, 3, 3, // map a at 0x1000, 0x100 bytes, rw-
		10, 0, 5, 0x41, // WriteU8
		7, 0, 5, // ReadU8
		3, 0, 1, // SetPerm a r--
		17, 0, 5, 0x42, // Store8 (misses)
		10, 0, 5, 0x42, // WriteU8 (protection fault)
		7, 0, 5, // ReadU8
		21, 0, 5, // Load8 (hits)
		3, 0, 0, // SetPerm a ---
		21, 0, 5, // Load8 (misses)
		7, 0, 5, // ReadU8 (protection fault)
	})
	f.Add([]byte{
		0, 1, 2, 5, 7, // map b at 0x1100, 0x40 bytes, rwx
		15, 2, 0, // Fetch32
		23, 2, 0, // Code32 (hits)
		4, 1, // W⊕X on
		23, 2, 0, // Code32 (misses)
		15, 2, 0, // Fetch32 (protection fault)
		14, 2, 0, 12, // FetchWindow (protection fault)
	})
	f.Add([]byte{
		0, 2, 0, 3, 3, // map c at 0x1000, 0x100 bytes, rw-
		5,                    // Seal
		12, 0, 8, 1, 2, 3, 4, // WriteU32
		2, 2, 4, // Move c to 0x1200
		9, 0, 8, // ReadU32 at the old address (unmapped)
		9, 4, 8, // ReadU32 at the new address
		22, 4, 8, // Load32 (hits)
		6,       // Reset
		9, 4, 8, // ReadU32
		1, 2, // Unmap c
		22, 4, 8, // Load32 (misses)
		9, 4, 8, // ReadU32 (unmapped)
	})
	f.Add([]byte{
		0, 0, 0, 3, 5, // map a at 0x1000, 0x100 bytes, r-x
		5,       // Seal
		3, 0, 7, // SetPerm a rwx
		12, 0, 0x10, 1, 2, 3, 4, // WriteU32
		20, 0, 0x14, 9, 9, 9, 9, // Store32 (hits)
		6,                       // Reset (back to r-x)
		20, 0, 0x14, 9, 9, 9, 9, // Store32 (misses)
		12, 0, 0x14, 9, 9, 9, 9, // WriteU32 (protection fault)
		0, 1, 2, 3, 3, // map b at 0x1100, 0x100 bytes, rw-
		18, 2, 0xFE, 4, 0x61, 0x62, 0x63, 0x64, // WriteBytes across a's end
		19, 2, 0xFE, 4, // ReadCString from a into b
	})
	f.Add([]byte{
		0, 0, 0, 3, 3, // map a at 0x1000, 0x100 bytes, rw-
		0, 1, 2, 3, 5, // map b at 0x1100, 0x100 bytes, r-x
		26, 2, 0xF0, 0x40, 0, // read Span cut at a's end
		27, 2, 0xF8, 0x20, 0x77, 0, // write Span of 8 bytes, Wrote
		27, 2, 0, 4, 0x77, 1, // write Span into b (empty)
		5,       // Seal
		3, 0, 7, // SetPerm a rwx (CodeGen kept)
		2, 0, 4, // Move a to 0x1200 (CodeGen kept)
		27, 4, 0x10, 4, 0x33, 1, // write Span, Wrote without a window
		6,       // Reset (back to rw-, CodeGen kept)
		3, 1, 1, // SetPerm b r-- (CodeGen bumps)
		26, 2, 0, 0xFF, 2, // exec Span into b (empty)
	})
	f.Add([]byte{
		0, 0, 0, 3, 5, // map a at 0x1000, 0x100 bytes, r-x
		5,       // Seal
		3, 0, 7, // SetPerm a rwx (CodeGen bumps)
		12, 0, 0x10, 1, 2, 3, 4, // WriteU32
		3, 0, 5, // SetPerm a r-x (CodeGen bumps)
		6,       // Reset restores a's bytes (CodeGen bumps)
		2, 0, 4, // Move a to 0x1200 (CodeGen bumps)
	})
	f.Add([]byte{
		0, 0, 0, 3, 5, // map a at 0x1000, 0x100 bytes, r-x
		0, 1, 2, 3, 3, // map b at 0x1100, 0x100 bytes, rw-
		30, 0, 0x10, 3, 1, 2, 3, 4, 5, 6, 7, 8, // Patch a (stamp moves)
		30, 1, 0x10, 3, 1, 2, 3, 4, 5, 6, 7, 8, // Patch b (writable: stamp kept)
		29, 0, 1, 4, // Move a and b to 0x1200 as a group
		29, 0, 0, 6, // a named twice (fails)
		2, 0, 5, // Move a to 0x1300 (overlaps b, fails)
		28, 0, // drop a and remap it
		5,                                // Seal
		3, 0, 7, 12, 4, 0x10, 9, 9, 9, 9, // SetPerm a rwx, WriteU32
		3, 0, 5, // SetPerm a r-x
		6, // Reset restores a's bytes
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		o := &oracle{t: t, m: New(), dirty: map[*Segment][2]uint32{}, seen: map[uint64]bool{}}
		r := &opReader{in: in}
		for step := 0; len(r.in) > 0; step++ {
			code, fixed, before := o.m.CodeGen(), o.fixed(), o.stamps()
			patched := o.step(step, r)
			o.checkDirty(step)
			o.checkStamps(step, before, patched)
			if o.m.CodeGen() == code {
				o.checkFixed(step, fixed)
			}
		}
	})
}

// fuzzNames, fuzzBases and fuzzSizes keep the fuzzer's segments few and
// close together, so segments abut, overlap attempts are common and
// accesses land on their edges; the top bases exercise the 32-bit wrap.
var (
	fuzzNames = [4]string{"a", "b", "c", "d"}
	fuzzBases = [8]uint32{0x1000, 0x1004, 0x1100, 0x1103, 0x1200, 0x1300, 0xFFFFFE00, 0xFFFFFF00}
	fuzzSizes = [8]uint32{1, 3, 4, 0x100, 5, 0x40, 0x101, 0xFF}
)

// opReader hands out the input a byte at a time, zeros once it runs out.
type opReader struct{ in []byte }

func (r *opReader) byte() byte {
	if len(r.in) == 0 {
		return 0
	}
	b := r.in[0]
	r.in = r.in[1:]
	return b
}

func (r *opReader) name() string { return fuzzNames[r.byte()%4] }

func (r *opReader) base() uint32 { return fuzzBases[r.byte()%8] }

// addr is a base plus a signed byte, so accesses straddle segment edges.
func (r *opReader) addr() uint32 { return r.base() + uint32(int32(int8(r.byte()))) }

// length is a small count, or (for 0xFF) one huge enough to wrap.
func (r *opReader) length() uint32 {
	if b := r.byte(); b != 0xFF {
		return uint32(b)
	}
	return 0xFFFFFFF0
}

func (r *opReader) bytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = r.byte()
	}
	return b
}

// oracle is the window-free model FuzzMemoryOps checks Memory against. It
// tracks the expected dirty range of every segment and the Reset baseline's
// segment list; everything else it reads from the live segments.
type oracle struct {
	t      *testing.T
	m      *Memory
	wx     bool
	dirty  map[*Segment][2]uint32 // expected DirtyRange
	sealed []*Segment             // segments at the last Seal, nil before
	seen   map[uint64]bool        // every stamp a segment has shown
}

// stamped is a segment's stamp with the permissions and bytes it named.
type stamped struct {
	stamp uint64
	perm  Perm
	data  []byte
}

// stamps snapshots every segment's stamp, permissions and bytes.
func (o *oracle) stamps() map[*Segment]stamped {
	out := map[*Segment]stamped{}
	for _, s := range o.m.Segments() {
		out[s] = stamped{s.Stamp(), s.Perm, bytes.Clone(s.Data)}
	}
	return out
}

// checkStamps requires each segment's stamp to have changed exactly when
// its permissions changed or, non-writable before or after the step, its
// bytes did; a new segment's stamp to be one never seen; and a stamp
// changed by anything but a Patch of that segment (patched) to have
// voided its sites and pieces.
func (o *oracle) checkStamps(step int, before map[*Segment]stamped, patched *Segment) {
	for _, s := range o.m.Segments() {
		was, ok := before[s]
		if !ok {
			if o.seen[s.Stamp()] {
				o.t.Fatalf("step %d: new segment %s reuses stamp %d", step, s.Name, s.Stamp())
			}
		} else {
			code := (was.perm&s.Perm)&PermWrite == 0
			want := was.perm != s.Perm || code && !bytes.Equal(was.data, s.Data)
			if got := s.Stamp() != was.stamp; got != want {
				o.t.Fatalf("step %d: segment %s stamp changed=%v, want %v (perm %v -> %v)",
					step, s.Name, got, want, was.perm, s.Perm)
			}
			if s.Stamp() != was.stamp && s.Stamp() != 0 && o.seen[s.Stamp()] {
				o.t.Fatalf("step %d: segment %s went back to stamp %d", step, s.Name, s.Stamp())
			}
			if s.Stamp() != was.stamp && s != patched && (len(s.sites) > 0 || len(s.pieces) > 0) {
				o.t.Fatalf("step %d: segment %s kept its sites and pieces across a new stamp", step, s.Name)
			}
		}
		o.seen[s.Stamp()] = true
	}
}

func (o *oracle) find(addr uint32) *Segment {
	for _, s := range o.m.Segments() {
		if addr >= s.Base && addr-s.Base < uint32(len(s.Data)) {
			return s
		}
	}
	return nil
}

func (o *oracle) fault(kind FaultKind, access Access, addr uint32) *Fault {
	f := &Fault{Kind: kind, Access: access, Addr: addr}
	if s := o.find(addr); s != nil {
		f.Segment = s.Name
	}
	return f
}

// check is the reference for Memory.check: scan, bounds, permission,
// W⊕X.
func (o *oracle) check(addr, n uint32, access Access) (*Segment, uint32, *Fault) {
	s := o.find(addr)
	if s == nil {
		return nil, 0, o.fault(FaultUnmapped, access, addr)
	}
	off := addr - s.Base
	if uint64(off)+uint64(n) > uint64(len(s.Data)) {
		return nil, 0, o.fault(FaultUnmapped, access, s.Base+uint32(len(s.Data)))
	}
	need := [...]Perm{AccessRead: PermRead, AccessWrite: PermWrite, AccessExec: PermExec}[access]
	if s.Perm&need == 0 || access == AccessExec && o.wx && s.Perm&PermWrite != 0 {
		return nil, 0, o.fault(FaultProtection, access, addr)
	}
	return s, off, nil
}

func (o *oracle) wrote(s *Segment, off, n uint32) {
	d := o.dirty[s]
	d[0] = min(d[0], off)
	d[1] = max(d[1], off+n)
	o.dirty[s] = d
}

func (o *oracle) clean() {
	for _, s := range o.m.Segments() {
		o.dirty[s] = [2]uint32{s.Size(), 0}
	}
}

// fixedSeg is a non-writable segment as it stood before a step.
type fixedSeg struct {
	base uint32
	perm Perm
	data []byte
}

// fixed snapshots every non-writable segment.
func (o *oracle) fixed() map[*Segment]fixedSeg {
	out := map[*Segment]fixedSeg{}
	for _, s := range o.m.Segments() {
		if s.Perm&PermWrite == 0 {
			out[s] = fixedSeg{s.Base, s.Perm, bytes.Clone(s.Data)}
		}
	}
	return out
}

// checkFixed requires a step that kept CodeGen to have left the
// non-writable segments exactly as fixed saw them: still mapped, at the
// same base, with the same permissions and bytes, and no others.
func (o *oracle) checkFixed(step int, fixed map[*Segment]fixedSeg) {
	now := o.fixed()
	for s, was := range fixed {
		is, ok := now[s]
		if !ok || is.base != was.base || is.perm != was.perm || !bytes.Equal(is.data, was.data) {
			o.t.Fatalf("step %d: non-writable segment %s changed under an unchanged CodeGen", step, s.Name)
		}
	}
	for s := range now {
		if _, ok := fixed[s]; !ok {
			o.t.Fatalf("step %d: segment %s became non-writable under an unchanged CodeGen", step, s.Name)
		}
	}
}

func (o *oracle) checkDirty(step int) {
	for _, s := range o.m.Segments() {
		lo, hi := s.DirtyRange()
		if want := o.dirty[s]; lo != want[0] || hi != want[1] {
			o.t.Fatalf("step %d: segment %s dirty [%#x,%#x), want [%#x,%#x)", step, s.Name, lo, hi, want[0], want[1])
		}
	}
}

func sameFault(got, want *Fault) bool {
	if got == nil || want == nil {
		return got == want
	}
	return *got == *want
}

// le reads an n-byte little-endian value.
func le(b []byte) uint32 {
	var v uint32
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint32(b[i])
	}
	return v
}

// move is the reference for Memory.Move: it reports whether moving the
// named segments as a group, the first to base, may succeed.
func (o *oracle) move(base uint32, names ...string) bool {
	var group []*Segment
	for _, name := range names {
		s := o.m.Segment(name)
		for _, g := range group {
			if g == s {
				return false
			}
		}
		if s == nil {
			return false
		}
		group = append(group, s)
	}
	delta := base - group[0].Base
	for _, s := range group {
		to := uint64(s.Base + delta)
		if to+uint64(s.Size()) >= 1<<32 { // Map refuses a range ending at 2³² too
			return false
		}
		for _, other := range o.m.Segments() {
			if !slices.Contains(group, other) && to < uint64(other.End()) && uint64(other.Base) < to+uint64(s.Size()) {
				return false
			}
		}
	}
	return true
}

// checkMove runs Memory.Move against the oracle: success exactly when it
// allows, every moved segment shifted by the same delta, and nothing else
// changed (stamps are checked after the step).
func (o *oracle) checkMove(step int, base uint32, names ...string) {
	want := o.move(base, names...)
	bases, moved := map[*Segment]uint32{}, map[*Segment]bool{}
	for _, s := range o.m.Segments() {
		bases[s] = s.Base
	}
	for _, name := range names {
		moved[o.m.Segment(name)] = want
	}
	var delta uint32
	if first := o.m.Segment(names[0]); first != nil {
		delta = base - first.Base
	}
	group := make([]*Segment, len(names))
	for i, name := range names {
		group[i] = o.m.Segment(name)
	}
	err := o.m.Move(base, group...)
	if (err == nil) != want {
		o.t.Fatalf("step %d: Move(%#x, %v) = %v, want success %v", step, base, names, err, want)
	}
	for _, s := range o.m.Segments() {
		wantBase := bases[s]
		if moved[s] {
			wantBase += delta
		}
		if s.Base != wantBase {
			o.t.Fatalf("step %d: segment %s at %#x after Move, want %#x", step, s.Name, s.Base, wantBase)
		}
	}
}

// step decodes and runs one operation, failing the test on any
// divergence from the oracle. It returns the segment a Patch wrote, if
// any.
func (o *oracle) step(step int, r *opReader) (patched *Segment) {
	t, m := o.t, o.m
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: "+format, append([]any{step}, args...)...)
	}
	read := func(name string, n uint32, addr, got uint32, f *Fault) {
		t.Helper()
		s, off, want := o.check(addr, n, AccessRead)
		if !sameFault(f, want) {
			fail("%s(%#x) fault %v, want %v", name, addr, f, want)
		}
		if want == nil && got != le(s.Data[off:off+n]) {
			fail("%s(%#x) = %#x, want %#x", name, addr, got, le(s.Data[off:off+n]))
		}
	}
	write := func(name string, addr uint32, b []byte, f *Fault) {
		t.Helper()
		s, off, want := o.check(addr, uint32(len(b)), AccessWrite)
		if !sameFault(f, want) {
			fail("%s(%#x) fault %v, want %v", name, addr, f, want)
		}
		if want == nil {
			if !bytes.Equal(s.Data[off:off+uint32(len(b))], b) {
				fail("%s(%#x) stored % x, segment holds % x", name, addr, b, s.Data[off:off+uint32(len(b))])
			}
			o.wrote(s, off, uint32(len(b)))
		}
	}
	// hit checks a window hit: the oracle must allow it with n bytes
	// in bounds, and it returns the segment and offset.
	hit := func(name string, addr, n uint32, access Access) (*Segment, uint32) {
		t.Helper()
		s, off, want := o.check(addr, 1, access)
		if want != nil || uint64(off)+uint64(n) > uint64(len(s.Data)) {
			fail("%s(%#x) hit where the oracle says %v", name, addr, want)
		}
		return s, off
	}
	// code is the reference fetch window: up to n bytes, cut at the
	// segment's end.
	code := func(s *Segment, off, n uint32) []byte {
		end := uint64(off) + uint64(n)
		if end > uint64(len(s.Data)) {
			end = uint64(len(s.Data))
		}
		return s.Data[off:end]
	}

	switch op := r.byte() % 31; op {
	case 0:
		name, base, size, perm := r.name(), r.base(), fuzzSizes[r.byte()%8], Perm(r.byte()%8)
		if s, err := m.Map(name, base, size, perm); err == nil {
			o.dirty[s] = [2]uint32{size, 0}
		}
	case 1:
		m.Unmap(r.name())
	case 2:
		name := r.name()
		o.checkMove(step, r.base(), name)
	case 3:
		_ = m.SetPerm(r.name(), Perm(r.byte()%8))
	case 4:
		o.wx = r.byte()%2 == 1
		m.SetWX(o.wx)
	case 5:
		m.Seal()
		o.sealed = m.Segments()
		o.clean()
	case 6:
		segs := m.Segments()
		want := o.sealed != nil && len(o.sealed) == len(segs)
		for i := 0; want && i < len(segs); i++ {
			want = o.sealed[i] == segs[i]
		}
		if got := m.Reset(); got != want {
			fail("Reset() = %v, want %v", got, want)
		}
		if want {
			o.clean()
		}
	case 7:
		addr := r.addr()
		v, f := m.ReadU8(addr)
		read("ReadU8", 1, addr, uint32(v), f)
	case 8:
		addr := r.addr()
		v, f := m.ReadU16(addr)
		read("ReadU16", 2, addr, uint32(v), f)
	case 9:
		addr := r.addr()
		v, f := m.ReadU32(addr)
		read("ReadU32", 4, addr, v, f)
	case 10:
		addr, b := r.addr(), r.bytes(1)
		write("WriteU8", addr, b, m.WriteU8(addr, b[0]))
	case 11:
		addr, b := r.addr(), r.bytes(2)
		write("WriteU16", addr, b, m.WriteU16(addr, uint16(le(b))))
	case 12:
		addr, b := r.addr(), r.bytes(4)
		write("WriteU32", addr, b, m.WriteU32(addr, le(b)))
	case 13, 14:
		addr, n := r.addr(), r.length()
		got, perm, f := m.FetchWindow(addr, n)
		s, off, want := o.check(addr, 1, AccessExec)
		if !sameFault(f, want) {
			fail("fetch(%#x, %d) fault %v, want %v", addr, n, f, want)
		}
		if want == nil && (!bytes.Equal(got, code(s, off, n)) || perm != s.Perm) {
			fail("fetch(%#x, %d) = % x %v, want % x %v", addr, n, got, perm, code(s, off, n), s.Perm)
		}
	case 15:
		addr := r.addr()
		word, perm, short, f := m.Fetch32(addr)
		s, off, want := o.check(addr, 1, AccessExec)
		if !sameFault(f, want) {
			fail("Fetch32(%#x) fault %v, want %v", addr, f, want)
		}
		if want == nil {
			wantShort := s.Size()-off < 4
			if short != wantShort || perm != s.Perm || !short && word != le(s.Data[off:off+4]) {
				fail("Fetch32(%#x) = %#x %v short=%v, want short=%v", addr, word, perm, short, wantShort)
			}
		}
	case 16:
		addr, n := r.addr(), r.length()
		got, f := m.ReadBytes(addr, n)
		if n == 0 {
			if got != nil || f != nil {
				fail("ReadBytes(%#x, 0) = %v, %v", addr, got, f)
			}
			break
		}
		s, off, want := o.check(addr, n, AccessRead)
		if !sameFault(f, want) {
			fail("ReadBytes(%#x, %d) fault %v, want %v", addr, n, f, want)
		}
		if want == nil && !bytes.Equal(got, s.Data[off:off+n]) {
			fail("ReadBytes(%#x, %d) = % x", addr, n, got)
		}
	case 17:
		addr, b := r.addr(), r.bytes(1)
		if m.Store8(addr, b[0]) {
			hit("Store8", addr, 1, AccessWrite)
			write("Store8", addr, b, nil)
		}
	case 18:
		addr, b := r.addr(), r.bytes(int(r.byte()%8))
		f := m.WriteBytes(addr, b)
		if len(b) == 0 {
			if f != nil {
				fail("WriteBytes(%#x, nil) = %v", addr, f)
			}
			break
		}
		write("WriteBytes", addr, b, f)
	case 19:
		addr, limit := r.addr(), r.length()
		got, f := m.ReadCString(addr, limit)
		want, wf := o.cstring(addr, limit)
		if !sameFault(f, wf) || got != want {
			fail("ReadCString(%#x, %d) = %q %v, want %q %v", addr, limit, got, f, want, wf)
		}
	case 20:
		addr, b := r.addr(), r.bytes(4)
		if m.Store32(addr, le(b)) {
			hit("Store32", addr, 4, AccessWrite)
			write("Store32", addr, b, nil)
		}
	case 21:
		addr := r.addr()
		if v, ok := m.Load8(addr); ok {
			s, off := hit("Load8", addr, 1, AccessRead)
			if v != s.Data[off] {
				fail("Load8(%#x) = %#x, want %#x", addr, v, s.Data[off])
			}
		}
	case 22:
		addr := r.addr()
		if v, ok := m.Load32(addr); ok {
			s, off := hit("Load32", addr, 4, AccessRead)
			if v != le(s.Data[off:off+4]) {
				fail("Load32(%#x) = %#x, want %#x", addr, v, le(s.Data[off:off+4]))
			}
		}
	case 23:
		addr := r.addr()
		if word, perm, ok := m.Code32(addr); ok {
			s, off := hit("Code32", addr, 4, AccessExec)
			if word != le(s.Data[off:off+4]) || perm != s.Perm {
				fail("Code32(%#x) = %#x %v", addr, word, perm)
			}
		}
	case 24:
		addr, n := r.addr(), r.length()
		if got, perm, ok := m.CodeWindow(addr, n); ok {
			s, off := hit("CodeWindow", addr, 1, AccessExec)
			if !bytes.Equal(got, code(s, off, n)) || perm != s.Perm {
				fail("CodeWindow(%#x, %d) = % x %v", addr, n, got, perm)
			}
		}
	case 25:
		if addr := r.addr(); m.Find(addr) != o.find(addr) {
			fail("Find(%#x) = %v, want %v", addr, m.Find(addr), o.find(addr))
		}
	case 26:
		addr, n, access := r.addr(), r.length(), Access(r.byte()%3+1)
		got := m.Span(addr, n, access)
		var want []byte
		if s, off, f := o.check(addr, 1, access); f == nil {
			want = code(s, off, n)
		}
		if len(got) != len(want) || len(got) > 0 && &got[0] != &want[0] {
			fail("Span(%#x, %d, %v) = %d bytes, want %d", addr, n, access, len(got), len(want))
		}
	case 27:
		addr, n, v := r.addr(), r.length(), r.byte()
		span := m.Span(addr, n, AccessWrite)
		for i := range span {
			span[i] = v
		}
		if r.byte()%2 == 1 {
			m.win[AccessWrite] = window{} // Wrote resolves through Find
		}
		if m.Wrote(addr, uint32(len(span))); len(span) > 0 {
			write("Span", addr, span, nil)
		}
	case 28: // drop a segment and map it again where it was
		if s := m.Segment(r.name()); s != nil {
			m.Unmap(s.Name)
			if _, err := m.Map(s.Name, s.Base, s.Size(), s.Perm); err != nil {
				fail("remap %s: %v", s.Name, err)
			}
			o.dirty[m.Segment(s.Name)] = [2]uint32{s.Size(), 0}
		}
	case 29:
		a, b := r.name(), r.name()
		o.checkMove(step, r.base(), a, b)
	case 30: // Patch one site with one piece over it
		s := m.Segment(r.name())
		off, n, b := uint32(r.byte()), uint32(r.byte()%8+1), r.bytes(8)
		if s == nil || off+n > s.Size() {
			break
		}
		img := bytes.Clone(s.Data)
		copy(img[off:off+n], b)
		changed := !bytes.Equal(s.Data[off:off+n], img[off:off+n])
		site := []Site{{Off: off, Len: n}}
		if err := m.Patch(s.Name, img, site, []Piece{{Off: off, Len: n, Key: 1}}); err != nil {
			fail("Patch(%s, %#x+%d): %v", s.Name, off, n, err)
		}
		if !bytes.Equal(s.Data, img) {
			fail("Patch(%s, %#x+%d) left % x", s.Name, off, n, s.Data[off:off+n])
		}
		if changed { // a store of the whole site
			o.wrote(s, off, n)
		}
		if !s.AtSite(off, 1) || s.AtSite(off+n, 1) || off > 0 && s.AtSite(off-1, 1) {
			fail("AtSite disagrees with the site %#x+%d", off, n)
		}
		if p, ok := s.PieceAt(off + n - 1); !ok || p.Off != off {
			fail("PieceAt(%#x) = %+v, %v", off+n-1, p, ok)
		}
		patched = s
	}
	if m.WX() != o.wx {
		fail("WX() = %v, want %v", m.WX(), o.wx)
	}
	return patched
}

// cstring is the reference ReadCString: segment by segment through the
// oracle's check, following contiguous segments.
func (o *oracle) cstring(addr, limit uint32) (string, *Fault) {
	var out []byte
	for limit > 0 {
		s, off, f := o.check(addr, 1, AccessRead)
		if f != nil {
			return "", f
		}
		n := min(s.Size()-off, limit)
		chunk := s.Data[off : off+n]
		if i := bytes.IndexByte(chunk, 0); i >= 0 {
			return string(append(out, chunk[:i]...)), nil
		}
		out = append(out, chunk...)
		addr += n
		limit -= n
	}
	return string(out), nil
}
