// Package mem implements the simulated 32-bit flat address space used by the
// exploitation laboratory. It provides named segments with page-style
// read/write/execute permissions, access-fault reporting, and an optional
// W⊕X (writable-xor-executable) policy that mirrors DEP/NX: when enabled,
// instruction fetch from a writable segment faults, exactly like executing
// injected shellcode on a stack with stack-execution protection.
//
// The address space is the substrate every other component builds on: the
// loader maps program images into it, the CPU emulators fetch and execute
// from it, and the vulnerable victim code corrupts it. Because the CPU
// interpreters perform several accesses per emulated instruction, the
// accessors are engineered as hot paths. Each access kind (read, write,
// fetch) keeps an access window: the data of the segment it last reached,
// installed only after that access passed every check. An access that
// lands in its kind's window resolves without a segment lookup or a
// permission check, and the window hits (Load8, Store8, Load32, Store32,
// Code32, CodeWindow) are small enough to inline into the CPU executors.
// A miss takes the checked path, which is the only place a fault is
// built. Every width-typed load/store bounds-checks exactly once, and the
// non-fault path performs no allocation.
package mem

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// Perm is a bitmask of segment permissions.
type Perm uint8

// Permission bits. A segment with PermWrite but not PermExec is the normal
// data/stack configuration; PermRead|PermExec is the normal text
// configuration.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Common permission combinations.
const (
	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

// String renders the permission in the familiar "rwx" form.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Access identifies the kind of memory access that produced a fault.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota + 1
	AccessWrite
	AccessExec
)

// String implements fmt.Stringer.
func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	default:
		return "unknown"
	}
}

// FaultKind classifies a memory fault.
type FaultKind uint8

// Fault kinds. FaultUnmapped is an access to an address outside every
// segment; FaultProtection is an access violating the segment permissions
// (including W⊕X fetch violations).
const (
	FaultUnmapped FaultKind = iota + 1
	FaultProtection
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "unmapped"
	case FaultProtection:
		return "protection"
	default:
		return "unknown"
	}
}

// Fault is the simulated equivalent of SIGSEGV: an invalid memory access.
// It records enough context to classify an experiment outcome (e.g. "victim
// crashed fetching from the stack" means W⊕X stopped a code-injection
// attack).
type Fault struct {
	Kind   FaultKind
	Access Access
	Addr   uint32
	// Segment is the name of the segment containing Addr, if any.
	Segment string
}

// Error implements the error interface.
func (f *Fault) Error() string {
	b := make([]byte, 0, 64+len(f.Segment))
	b = append(b, "memory fault: "...)
	b = append(b, f.Kind.String()...)
	b = append(b, ' ')
	b = append(b, f.Access.String()...)
	b = append(b, " at "...)
	b = AppendAddr(b, f.Addr)
	if f.Segment != "" {
		b = append(b, " (segment "...)
		b = append(b, f.Segment...)
		b = append(b, ')')
	}
	return string(b)
}

// AppendAddr appends v as fmt's %#08x renders it, "0x" and eight
// lower-case hex digits: the form faults and verdicts print addresses
// in, without fmt.
func AppendAddr(b []byte, v uint32) []byte {
	b = append(b, '0', 'x')
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[v>>shift&0xF])
	}
	return b
}

// Segment is a contiguous, permissioned region of the address space.
//
// Data is exported for loaders and tests that populate a segment in place
// before execution starts. Mutating Data directly at runtime bypasses both
// the dirty-range tracking Reset relies on and the code generation
// translated blocks key their validity to (see Memory.CodeGen); runtime
// stores must go through the Memory accessors. Base and Perm change only
// through Memory.Move and Memory.SetPerm, which clear the access windows
// that were checked against them.
type Segment struct {
	Name string
	Base uint32
	Perm Perm
	Data []byte

	// dirtyLo/dirtyHi is the half-open byte range written through the
	// Memory accessors since the last Seal/Reset (lo > hi means clean).
	dirtyLo, dirtyHi uint32

	// stamp names the segment's code content (see Stamp); sites and
	// pieces describe it (see Patch) until a change other than a Patch
	// voids them.
	stamp  uint64
	stamps *uint64 // the Memory's stamp count (see Memory.stamps)
	sites  []Site
	pieces []Piece
}

// Site is a range of a segment's bytes whose value depends on where the
// code around it was placed: an absolute address a slide rewrites, or a
// relative branch to code that may move independently.
type Site struct{ Off, Len uint32 }

// Piece is a range of a segment's bytes that holds, outside its sites,
// exactly the bytes Key names wherever the loader placed it, with its
// sites at the offsets Key names too: one function of a linked image,
// say, whose Key identifies the function and whose sites are its
// relocated fields. Keys are process-wide, so equal keys name equal bytes
// in any segment of any address space.
type Piece struct {
	Off, Len uint32
	Key      uint64
}

// newStamp gives the segment a stamp never seen in its Memory.
func (s *Segment) newStamp() {
	*s.stamps++
	s.stamp = *s.stamps
}

// restamp gives the segment a new stamp after a change to its bytes or
// permissions other than a Patch, which voids its sites and pieces.
func (s *Segment) restamp() {
	s.newStamp()
	s.sites, s.pieces = nil, nil
}

// Stamp names the segment's content as code: it changes exactly when the
// segment's permissions change or, while it is non-writable before or
// after the change, its bytes do (a store into a writable segment keeps
// it; nothing translates writable code). A Move keeps it. isa.Core
// reuses a translation of the segment's code as it stands while the
// stamp stands.
func (s *Segment) Stamp() uint64 { return s.stamp }

// AtSite reports whether [off, off+n) overlaps one of the segment's
// sites.
func (s *Segment) AtSite(off, n uint32) bool {
	i := sort.Search(len(s.sites), func(i int) bool { return s.sites[i].Off+s.sites[i].Len > off })
	return i < len(s.sites) && uint64(s.sites[i].Off) < uint64(off)+uint64(n)
}

// PieceAt returns the piece that holds the byte at off, if any.
func (s *Segment) PieceAt(off uint32) (Piece, bool) {
	i := sort.Search(len(s.pieces), func(i int) bool { return s.pieces[i].Off+s.pieces[i].Len > off })
	if i < len(s.pieces) && s.pieces[i].Off <= off {
		return s.pieces[i], true
	}
	return Piece{}, false
}

// Size returns the segment length in bytes.
func (s *Segment) Size() uint32 { return uint32(len(s.Data)) }

// DirtyRange returns the half-open byte-offset range written through the
// Memory accessors (or Populate) since the segment was mapped or last
// Seal/Reset; lo >= hi means clean. The differential lockstep harness
// uses it to compare only the bytes an execution could have changed.
func (s *Segment) DirtyRange() (lo, hi uint32) { return s.dirtyLo, s.dirtyHi }

// End returns the first address past the segment.
func (s *Segment) End() uint32 { return s.Base + s.Size() }

// Contains reports whether addr falls inside the segment.
func (s *Segment) Contains(addr uint32) bool {
	return addr >= s.Base && addr < s.End()
}

// Populate copies b into the segment at off, bypassing permissions (it is
// the loader's channel for filling text and read-only data) but recording
// the write in the dirty tracking, so a later Seal knows the segment is no
// longer the zero-fill Map produced. It must not be used once execution
// has started: it does not bump the code generation. It changes the
// stamp when it changes a byte.
func (s *Segment) Populate(off uint32, b []byte) {
	dst := s.Data[off:]
	if len(b) < len(dst) {
		dst = dst[:len(b)]
	}
	if !bytes.Equal(dst, b[:len(dst)]) {
		copy(dst, b)
		s.restamp()
	}
	if len(b) > 0 {
		s.markDirty(off, uint32(len(b)))
	}
}

// markDirty widens the dirty watermarks to cover [off, off+n).
func (s *Segment) markDirty(off, n uint32) {
	if off < s.dirtyLo {
		s.dirtyLo = off
	}
	if off+n > s.dirtyHi {
		s.dirtyHi = off + n
	}
}

// clean resets the dirty watermarks to the empty range.
func (s *Segment) clean() {
	s.dirtyLo = s.Size()
	s.dirtyHi = 0
}

// sealedSeg is one segment's baseline for Reset. data is nil when the
// segment was all-zero at Seal time (the common stack/heap case), letting
// Reset clear instead of copy.
type sealedSeg struct {
	seg  *Segment
	perm Perm
	data []byte
}

// Memory is a simulated 32-bit address space composed of non-overlapping
// segments. The zero value is an empty address space with W⊕X disabled.
//
// Memory is not safe for concurrent use; each simulated process owns its
// own Memory. (Even read-only lookups move the access windows.)
type Memory struct {
	segs []*Segment // sorted by Base
	wx   bool

	// win[a] is the access window of kind a (see window). Every layout
	// or permission change (Map, Unmap, Move, SetPerm, Reset) clears all
	// of them and SetWX clears the fetch window, so a window never
	// outlives the layout, permissions or policy it was checked against.
	win [4]window

	// code counts code generations, the one generation of the space: Map
	// and Unmap bump it, and Move, SetPerm, Patch and Reset bump it only
	// when they move, re-permit or rewrite bytes of a segment that is
	// non-writable before or after the change. While it is unchanged, no
	// non-writable segment's base, permissions or bytes change and no
	// segment becomes non-writable, so no byte a translation read has
	// changed (a write needs PermWrite, and nothing translates writable
	// code), while the stack slide and the stack/heap RWX↔RW flips of a
	// recycled process keep it. isa.Core keys its translated blocks to
	// it. It starts at 1 so a zero-valued block-cache entry never
	// validates.
	code uint64

	// sealed is the Reset baseline captured by Seal, nil before sealing.
	sealed []sealedSeg

	// stamps counts the stamps minted for the segments (see
	// Segment.Stamp), so a stamp names one content of one segment.
	// Segments point at the count, the only part of the Memory a stamp
	// needs.
	stamps *uint64
}

// window is one access kind's view of the segment that kind last reached:
// seg's Base and Data, recorded by check only after an access of that kind
// passed every bounds, permission and W⊕X check there. Until it is cleared,
// any access of the same kind that falls within data would pass the same
// checks on the same segment, so it may skip them. The zero window is
// empty and never hits.
type window struct {
	base uint32
	data []byte
	seg  *Segment
}

// New returns an empty address space.
func New() *Memory { return &Memory{code: 1, stamps: new(uint64)} }

// SetWX enables or disables the W⊕X policy. With W⊕X on, an instruction
// fetch from a writable segment faults even if the segment claims
// PermExec; this mirrors kernels that refuse writable+executable
// mappings.
func (m *Memory) SetWX(on bool) {
	m.wx = on
	m.win[AccessExec] = window{}
}

// relayout drops every access window, after a layout or permission
// change the windows were not checked against.
func (m *Memory) relayout() { m.win = [4]window{} }

// WX reports whether the W⊕X policy is enabled.
func (m *Memory) WX() bool { return m.wx }

// CodeGen returns the current code generation (see Memory.code): a
// translation made while it had this value is still exact. isa.Core's
// block cache tags each dispatch with it.
func (m *Memory) CodeGen() uint64 { return m.code }

// Map creates a zero-filled segment. It fails if the range overlaps an
// existing segment or wraps the 32-bit address space.
func (m *Memory) Map(name string, base, size uint32, perm Perm) (*Segment, error) {
	if size == 0 {
		return nil, fmt.Errorf("map %s: zero size", name)
	}
	if base+size < base {
		return nil, fmt.Errorf("map %s: range %#x+%#x wraps address space", name, base, size)
	}
	for _, s := range m.segs {
		if base < s.End() && s.Base < base+size {
			return nil, fmt.Errorf("map %s at %#x+%#x: overlaps segment %s at %#x+%#x",
				name, base, size, s.Name, s.Base, s.Size())
		}
	}
	if m.stamps == nil { // the zero Memory
		m.stamps = new(uint64)
	}
	seg := &Segment{Name: name, Base: base, Perm: perm, Data: make([]byte, size), stamps: m.stamps}
	seg.clean()
	seg.restamp()
	m.segs = append(m.segs, seg)
	slices.SortFunc(m.segs, byBase)
	m.relayout()
	m.code++
	return seg, nil
}

// byBase orders segments by base address.
func byBase(a, b *Segment) int { return cmp.Compare(a.Base, b.Base) }

// Move moves the segments of group as one group, the first to base and
// every other by the same delta, keeping their contents, stamps, dirty
// tracking and sealed baseline (offsets are segment-relative, so none of
// them changes). The kernel slides a recycled process's stack to its new
// ASLR position this way instead of mapping, and zero-filling, a fresh
// stack, and an image's sections to its new PIE or ASLR base instead
// of remapping them. It fails, leaving the space unchanged, if a segment
// is nil (a name Segment did not find), not mapped in m or given twice,
// or a moved range would overlap a segment outside the group or wrap. It
// does not allocate unless it fails.
func (m *Memory) Move(base uint32, group ...*Segment) error {
	for i, s := range group {
		if s == nil || !slices.Contains(m.segs, s) {
			return fmt.Errorf("move: segment %d of the group is not mapped", i)
		}
		if slices.Contains(group[:i], s) {
			return fmt.Errorf("move: segment %q given twice", s.Name)
		}
	}
	if len(group) == 0 || base == group[0].Base {
		return nil
	}
	delta := base - group[0].Base
	code := false
	for _, s := range group {
		to, size := s.Base+delta, s.Size()
		if to+size < to {
			return fmt.Errorf("move %s: range %#x+%#x wraps address space", s.Name, to, size)
		}
		for _, o := range m.segs {
			if !slices.Contains(group, o) && to < o.End() && o.Base < to+size {
				return fmt.Errorf("move %s to %#x+%#x: overlaps segment %s at %#x+%#x",
					s.Name, to, size, o.Name, o.Base, o.Size())
			}
		}
		code = code || s.Perm&PermWrite == 0
	}
	for _, s := range group {
		s.Base += delta
	}
	slices.SortFunc(m.segs, byBase)
	m.relayout()
	if code {
		m.code++
	}
	return nil
}

// Patch writes b's bytes at each site into the named segment, whose
// size b must have, bypassing permissions, and declares the segment's
// sites and pieces: the loader's channel for describing an image it
// mapped and for rewriting the addresses of one it slid with Move.
// Sites and pieces must each be sorted by offset and disjoint, and b
// must agree with the segment outside the sites. A patch that changes a
// byte changes the stamp and, for a non-writable segment, the code
// generation, and it is recorded in the dirty tracking like a store.
// Whatever else changes the segment's bytes or permissions voids the
// sites and pieces.
func (m *Memory) Patch(name string, b []byte, sites []Site, pieces []Piece) error {
	s := m.Segment(name)
	if s == nil {
		return fmt.Errorf("patch: no segment %q", name)
	}
	if len(b) != len(s.Data) {
		return fmt.Errorf("patch %s: %d bytes for a %d-byte segment", name, len(b), len(s.Data))
	}
	for _, st := range sites {
		if uint64(st.Off)+uint64(st.Len) > uint64(len(b)) {
			return fmt.Errorf("patch %s: site %#x+%d outside the segment", name, st.Off, st.Len)
		}
	}
	lo, hi := s.Size(), uint32(0)
	for _, st := range sites {
		end := st.Off + st.Len
		if !bytes.Equal(s.Data[st.Off:end], b[st.Off:end]) {
			copy(s.Data[st.Off:end], b[st.Off:end])
			lo, hi = min(lo, st.Off), max(hi, end)
		}
	}
	if hi > lo {
		s.markDirty(lo, hi-lo)
		if s.Perm&PermWrite == 0 {
			s.newStamp()
			m.code++
		}
	}
	s.sites, s.pieces = sites, pieces
	return nil
}

// Unmap removes the named segment. It is a no-op if the segment does not
// exist.
func (m *Memory) Unmap(name string) {
	for i, s := range m.segs {
		if s.Name == name {
			m.segs = append(m.segs[:i], m.segs[i+1:]...)
			m.relayout()
			m.code++
			return
		}
	}
}

// Segments returns the segments sorted by base address. The returned slice
// is a copy; the segments themselves are shared.
func (m *Memory) Segments() []*Segment {
	out := make([]*Segment, len(m.segs))
	copy(out, m.segs)
	return out
}

// Segment returns the named segment, or nil.
func (m *Memory) Segment(name string) *Segment {
	for _, s := range m.segs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Find returns the segment containing addr, or nil.
func (m *Memory) Find(addr uint32) *Segment {
	lo, hi := 0, len(m.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.segs[mid].End() <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(m.segs) && m.segs[lo].Contains(addr) {
		return m.segs[lo]
	}
	return nil
}

// SetPerm changes the permissions of the named segment.
func (m *Memory) SetPerm(name string, perm Perm) error {
	s := m.Segment(name)
	if s == nil {
		return fmt.Errorf("setperm: no segment %q", name)
	}
	if (s.Perm&perm)&PermWrite == 0 {
		m.code++
	}
	if s.Perm != perm {
		s.restamp()
	}
	s.Perm = perm
	m.relayout()
	return nil
}

func (m *Memory) fault(kind FaultKind, access Access, addr uint32) *Fault {
	f := &Fault{Kind: kind, Access: access, Addr: addr}
	if s := m.Find(addr); s != nil {
		f.Segment = s.Name
	}
	return f
}

// check locates the segment for a [addr, addr+n) access (n >= 1) and
// validates permissions, bounds-checking exactly once for the whole width.
// An access inside its kind's window resolves there; any other access is
// looked up, checked, and on success becomes its kind's window. Accesses
// may not span segments: real exploits in this lab never need to, and
// spanning would hide layout bugs. The bounds comparisons are written
// overflow-safe: off+n can wrap uint32 for accesses near the top of a
// segment with a huge (attacker-controlled) length, which must fault, not
// pass.
func (m *Memory) check(addr, n uint32, access Access) (*Segment, uint32, *Fault) {
	w := &m.win[access]
	if off := addr - w.base; uint64(off)+uint64(n) <= uint64(len(w.data)) {
		return w.seg, off, nil
	}
	s := m.Find(addr)
	if s == nil {
		return nil, 0, m.fault(FaultUnmapped, access, addr)
	}
	off := addr - s.Base
	if n > s.Size()-off { // off < Size via Contains; never underflows
		return nil, 0, m.fault(FaultUnmapped, access, s.End())
	}
	if m.denied(s, access) {
		return nil, 0, m.fault(FaultProtection, access, addr)
	}
	*w = window{base: s.Base, data: s.Data, seg: s}
	return s, off, nil
}

// denied reports whether s's permissions, or the W⊕X policy, forbid an
// access of kind access anywhere in it.
func (m *Memory) denied(s *Segment, access Access) bool {
	switch access {
	case AccessRead:
		return s.Perm&PermRead == 0
	case AccessWrite:
		return s.Perm&PermWrite == 0
	case AccessExec:
		// W⊕X: never execute from writable memory.
		return s.Perm&PermExec == 0 || m.wx && s.Perm&PermWrite != 0
	}
	return false
}

// Span returns the bytes of [addr, addr+n) that accesses of kind access
// reach, cut at the end of addr's segment: an access of that kind to any
// byte of it passes, so a caller may run many of them as one. It returns
// an empty span when addr itself would fault. Like a checked access it
// resolves through the kind's window or Find and leaves the window on
// the segment, and it does not allocate. The span aliases the segment's
// storage: stores through a write span must be reported with Wrote, and
// no span may be kept across a layout or permission change.
func (m *Memory) Span(addr, n uint32, access Access) []byte {
	w := &m.win[access]
	off := addr - w.base
	if off >= uint32(len(w.data)) {
		s := m.Find(addr)
		if s == nil || m.denied(s, access) {
			return nil
		}
		*w = window{base: s.Base, data: s.Data, seg: s}
		off = addr - s.Base
	}
	d := w.data[off:]
	if n < uint32(len(d)) {
		d = d[:n:n]
	}
	return d
}

// Wrote records that [addr, addr+n), which must lie within one segment
// (a write span, say), was stored to, widening that segment's dirty range
// exactly as n one-byte stores would.
func (m *Memory) Wrote(addr, n uint32) {
	if n == 0 {
		return
	}
	w := &m.win[AccessWrite]
	if off := addr - w.base; uint64(off)+uint64(n) <= uint64(len(w.data)) {
		w.seg.markDirty(off, n)
	} else if s := m.Find(addr); s != nil && n <= s.End()-addr {
		s.markDirty(addr-s.Base, n)
	}
}

// The window hits below are the inlinable halves of the accessors CPU
// executors call per instruction. Each resolves an access inside its
// kind's window (with the same result, dirty tracking included, as the
// accessor named in its doc) and otherwise reports ok=false without
// touching anything; the caller then calls that accessor, which looks the
// address up, faults or moves the window. scripts/check.sh asserts that
// the compiler still inlines them.

// Load8 is ReadU8's window hit.
func (m *Memory) Load8(addr uint32) (v uint8, ok bool) {
	w := &m.win[AccessRead]
	if off := addr - w.base; off < uint32(len(w.data)) {
		return w.data[off], true
	}
	return 0, false
}

// Store8 is WriteU8's window hit.
func (m *Memory) Store8(addr uint32, v uint8) (ok bool) {
	w := &m.win[AccessWrite]
	if off := addr - w.base; off < uint32(len(w.data)) {
		w.data[off] = v
		w.seg.markDirty(off, 1)
		return true
	}
	return false
}

// Load32 is ReadU32's window hit.
func (m *Memory) Load32(addr uint32) (v uint32, ok bool) {
	w := &m.win[AccessRead]
	if off := addr - w.base; uint64(off)+4 <= uint64(len(w.data)) {
		return binary.LittleEndian.Uint32(w.data[off:]), true
	}
	return 0, false
}

// Store32 is WriteU32's window hit.
func (m *Memory) Store32(addr uint32, v uint32) (ok bool) {
	w := &m.win[AccessWrite]
	if off := addr - w.base; uint64(off)+4 <= uint64(len(w.data)) {
		binary.LittleEndian.PutUint32(w.data[off:], v)
		w.seg.markDirty(off, 4)
		return true
	}
	return false
}

// Code32 is Fetch32's window hit for a whole word; a word cut short by
// the segment's end misses, and Fetch32 reports it short.
func (m *Memory) Code32(addr uint32) (word uint32, perm Perm, ok bool) {
	w := &m.win[AccessExec]
	if off := addr - w.base; uint64(off)+4 <= uint64(len(w.data)) {
		return binary.LittleEndian.Uint32(w.data[off:]), w.seg.Perm, true
	}
	return 0, 0, false
}

// CodeWindow is FetchWindow's window hit.
func (m *Memory) CodeWindow(addr, n uint32) (code []byte, perm Perm, ok bool) {
	w := &m.win[AccessExec]
	if off := addr - w.base; off < uint32(len(w.data)) {
		end := off + n
		if end > uint32(len(w.data)) || end < off {
			end = uint32(len(w.data))
		}
		return w.data[off:end:end], w.seg.Perm, true
	}
	return nil, 0, false
}

// ReadBytes copies n bytes starting at addr.
func (m *Memory) ReadBytes(addr, n uint32) ([]byte, *Fault) {
	if n == 0 {
		return nil, nil
	}
	s, off, f := m.check(addr, n, AccessRead)
	if f != nil {
		return nil, f
	}
	out := make([]byte, n)
	copy(out, s.Data[off:off+n])
	return out, nil
}

// WriteBytes stores b starting at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) *Fault {
	if len(b) == 0 {
		return nil
	}
	s, off, f := m.check(addr, uint32(len(b)), AccessWrite)
	if f != nil {
		return f
	}
	copy(s.Data[off:], b)
	s.markDirty(off, uint32(len(b)))
	return nil
}

// ReadU8 loads one byte, bounds-checking once.
func (m *Memory) ReadU8(addr uint32) (uint8, *Fault) {
	s, off, f := m.check(addr, 1, AccessRead)
	if f != nil {
		return 0, f
	}
	return s.Data[off], nil
}

// WriteU8 stores one byte, bounds-checking once.
func (m *Memory) WriteU8(addr uint32, v uint8) *Fault {
	s, off, f := m.check(addr, 1, AccessWrite)
	if f != nil {
		return f
	}
	s.Data[off] = v
	s.markDirty(off, 1)
	return nil
}

// ReadU16 loads a little-endian 16-bit value, bounds-checking once for both
// bytes.
func (m *Memory) ReadU16(addr uint32) (uint16, *Fault) {
	s, off, f := m.check(addr, 2, AccessRead)
	if f != nil {
		return 0, f
	}
	d := s.Data[off : off+2 : off+2]
	return uint16(d[0]) | uint16(d[1])<<8, nil
}

// WriteU16 stores a little-endian 16-bit value, bounds-checking once.
func (m *Memory) WriteU16(addr uint32, v uint16) *Fault {
	s, off, f := m.check(addr, 2, AccessWrite)
	if f != nil {
		return f
	}
	d := s.Data[off : off+2 : off+2]
	d[0] = byte(v)
	d[1] = byte(v >> 8)
	s.markDirty(off, 2)
	return nil
}

// ReadU32 loads a little-endian 32-bit value, bounds-checking once for all
// four bytes — the interpreter's hottest accessor (stack pops, pointer
// loads).
func (m *Memory) ReadU32(addr uint32) (uint32, *Fault) {
	s, off, f := m.check(addr, 4, AccessRead)
	if f != nil {
		return 0, f
	}
	d := s.Data[off : off+4 : off+4]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
}

// WriteU32 stores a little-endian 32-bit value, bounds-checking once.
func (m *Memory) WriteU32(addr uint32, v uint32) *Fault {
	s, off, f := m.check(addr, 4, AccessWrite)
	if f != nil {
		return f
	}
	d := s.Data[off : off+4 : off+4]
	d[0] = byte(v)
	d[1] = byte(v >> 8)
	d[2] = byte(v >> 16)
	d[3] = byte(v >> 24)
	s.markDirty(off, 4)
	return nil
}

// FetchWindow reads up to n instruction bytes at addr, enforcing execute
// permission and the W⊕X policy, and returns them with the containing
// segment's permissions. Fewer than n bytes may be returned when the
// segment ends before addr+n; callers decode what they receive. Block
// translators use the permissions to decide whether the bytes are
// immutable while CodeGen is unchanged (they are exactly when the segment
// is not writable).
//
// The returned slice aliases the segment's storage (no copy): callers must
// only read it and must not retain it across stores. Both CPU decoders
// consume the window immediately.
func (m *Memory) FetchWindow(addr, n uint32) ([]byte, Perm, *Fault) {
	s, off, f := m.check(addr, 1, AccessExec)
	if f != nil {
		return nil, 0, f
	}
	end := off + n
	if end > s.Size() || end < off {
		end = s.Size()
	}
	return s.Data[off:end:end], s.Perm, nil
}

// Fetch32 is the fixed-width fetch fast path for 4-byte-instruction ISAs
// (arms): one combined segment/bounds/permission check, no allocation.
// short=true (with no fault) means the segment ended within the
// instruction word, which callers report as an illegal instruction — the
// same outcome a truncated FetchWindow produces. perm is the containing
// segment's permissions, for block translators (see FetchWindow).
func (m *Memory) Fetch32(addr uint32) (word uint32, perm Perm, short bool, f *Fault) {
	s, off, f := m.check(addr, 1, AccessExec)
	if f != nil {
		return 0, 0, false, f
	}
	if s.Size()-off < 4 {
		return 0, s.Perm, true, nil
	}
	d := s.Data[off : off+4 : off+4]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, s.Perm, false, nil
}

// ReadCString reads a NUL-terminated string starting at addr, up to max
// bytes (not counting the terminator). It scans segment-at-a-time rather
// than bounds-checking per byte, and like the byte-wise loop it replaces it
// follows contiguous segments.
func (m *Memory) ReadCString(addr, max uint32) (string, *Fault) {
	var out []byte
	for max > 0 {
		s, off, f := m.check(addr, 1, AccessRead)
		if f != nil {
			return "", f
		}
		n := s.Size() - off
		if n > max {
			n = max
		}
		chunk := s.Data[off : off+n]
		if i := bytes.IndexByte(chunk, 0); i >= 0 {
			if out == nil {
				return string(chunk[:i]), nil
			}
			return string(append(out, chunk[:i]...)), nil
		}
		out = append(out, chunk...)
		addr += n
		max -= n
	}
	return string(out), nil
}

// Seal captures the current contents and permissions of every segment as
// the baseline Reset restores. The kernel seals an address space at the
// end of each load or re-layout; campaign fleets and recon probe loops
// then recycle the space with Reset instead of mapping a fresh one.
// Seal relies on the dirty tracking instead of scanning: a segment no
// accessor or Populate call has touched since the last Seal or Reset
// still equals its previous baseline or, never sealed, the zero fill Map
// gave it. Only dirty ranges are copied, so the stack and heap are
// sealed without being scanned or copied.
func (m *Memory) Seal() {
	old := m.sealed
	if !m.sameSegments() {
		m.sealed = make([]sealedSeg, len(m.segs))
	}
	for i, s := range m.segs {
		ss := sealedSeg{seg: s, perm: s.Perm}
		for _, o := range old {
			if o.seg == s {
				ss.data = o.data
				break
			}
		}
		if lo, hi := s.dirtyLo, s.dirtyHi; hi > lo {
			if ss.data == nil {
				ss.data = make([]byte, len(s.Data))
				lo, hi = 0, s.Size()
			}
			copy(ss.data[lo:hi], s.Data[lo:hi])
		}
		m.sealed[i] = ss
		s.clean()
	}
}

// sameSegments reports whether the sealed baseline covers exactly the
// current segments, in order.
func (m *Memory) sameSegments() bool {
	if m.sealed == nil || len(m.sealed) != len(m.segs) {
		return false
	}
	for i, ss := range m.sealed {
		if m.segs[i] != ss.seg {
			return false
		}
	}
	return true
}

// Reset restores the address space to the sealed baseline: every
// accessor-written byte range is restored (or re-zeroed, for segments that
// were all-zero at Seal time — the stack/heap fast path, which clears
// only the bytes a trial scribbled on instead of the whole segment), and sealed permissions return. It reports false — leaving
// the space untouched — if Seal was never called or the segment set has
// changed since (a mapped or unmapped segment cannot be reconciled).
//
// Reset clears the access windows, checked against the permissions it
// restores; it bumps CodeGen, so block translations revalidate, only when
// it restores the permissions or bytes of a segment that is non-writable
// before or after. Writes that bypassed the
// accessors (direct Segment.Data stores) are invisible to the dirty
// tracking and survive a Reset; runtime code must not do that (see
// Segment).
func (m *Memory) Reset() bool {
	if !m.sameSegments() {
		return false
	}
	for _, ss := range m.sealed {
		s := ss.seg
		code := (s.Perm&ss.perm)&PermWrite == 0
		if (s.Perm != ss.perm || s.dirtyHi > s.dirtyLo) && code {
			m.code++ // restores a non-writable segment's permissions or bytes
		}
		if s.Perm != ss.perm {
			s.restamp()
		}
		s.Perm = ss.perm
		if s.dirtyHi > s.dirtyLo {
			dst := s.Data[s.dirtyLo:s.dirtyHi]
			if ss.data == nil {
				if code && slices.ContainsFunc(dst, func(b byte) bool { return b != 0 }) {
					s.restamp()
				}
				clear(dst)
			} else {
				if code && !bytes.Equal(dst, ss.data[s.dirtyLo:s.dirtyHi]) {
					s.restamp()
				}
				copy(dst, ss.data[s.dirtyLo:s.dirtyHi])
			}
		}
		s.clean()
	}
	m.relayout()
	return true
}
