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
// accessors are engineered as hot paths: the last-hit segment is memoized
// per access kind (stack, data and text accesses each keep their own
// streak), every width-typed load/store bounds-checks exactly once, and the
// non-fault path performs no allocation.
package mem

import (
	"bytes"
	"fmt"
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
	if f.Segment != "" {
		return fmt.Sprintf("memory fault: %s %s at %#08x (segment %s)",
			f.Kind, f.Access, f.Addr, f.Segment)
	}
	return fmt.Sprintf("memory fault: %s %s at %#08x", f.Kind, f.Access, f.Addr)
}

// Segment is a contiguous, permissioned region of the address space.
//
// Data is exported for loaders and tests that populate a segment in place
// before execution starts. Mutating Data directly at runtime bypasses both
// the dirty-range tracking Reset relies on and the Gen counter decode
// caches key their validity to; runtime stores must go through the Memory
// accessors.
type Segment struct {
	Name string
	Base uint32
	Perm Perm
	Data []byte

	// dirtyLo/dirtyHi is the half-open byte range written through the
	// Memory accessors since the last Seal/Reset (lo > hi means clean).
	dirtyLo, dirtyHi uint32
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
// has started: it does not bump the memory generation.
func (s *Segment) Populate(off uint32, b []byte) {
	copy(s.Data[off:], b)
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
// own Memory. (Even read-only lookups update the internal segment
// memoization.)
type Memory struct {
	segs []*Segment // sorted by Base
	wx   bool

	// hint[a] is the index of the segment last hit by access kind a.
	// Stack, data and instruction streams each ride their own streak, so
	// the binary search in seg only runs when a streak breaks. Stale
	// values are self-validating: the index is bounds-checked and the
	// segment Contains-checked before use.
	hint [4]int

	// gen counts layout/permission generations: Map, Unmap, SetPerm and
	// Reset bump it. Decoded-instruction caches key their validity to it —
	// while gen is unchanged, the bytes of a non-writable segment cannot
	// change (W⊕X aside, a write needs PermWrite, and changing permissions
	// bumps gen). It starts at 1 so a zero-valued cache entry never
	// validates.
	gen uint64

	// sealed is the Reset baseline captured by Seal, nil before sealing.
	sealed []sealedSeg
}

// New returns an empty address space.
func New() *Memory { return &Memory{gen: 1} }

// SetWX enables or disables the W⊕X policy. With W⊕X on, Fetch from a
// writable segment faults even if the segment claims PermExec; this mirrors
// kernels that refuse writable+executable mappings.
func (m *Memory) SetWX(on bool) { m.wx = on }

// WX reports whether the W⊕X policy is enabled.
func (m *Memory) WX() bool { return m.wx }

// Gen returns the current layout/permission generation. The block
// translation caches (see isa/x86s) compare it to decide whether
// previously decoded instruction bytes can still be trusted.
func (m *Memory) Gen() uint64 { return m.gen }

// Map creates a segment. It fails if the range overlaps an existing segment
// or wraps the 32-bit address space.
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
	seg := &Segment{Name: name, Base: base, Perm: perm, Data: make([]byte, size)}
	seg.clean()
	m.segs = append(m.segs, seg)
	sort.Slice(m.segs, func(i, j int) bool { return m.segs[i].Base < m.segs[j].Base })
	m.gen++
	return seg, nil
}

// Move rebases the named segment to base, keeping its contents, its dirty
// tracking and its sealed baseline (offsets are segment-relative, so none
// of them changes). The kernel slides a recycled process's stack to its
// new ASLR position this way instead of mapping, and zero-filling, a fresh
// megabyte. It fails, leaving the space unchanged, if the segment does not
// exist or the new range would overlap another segment or wrap.
func (m *Memory) Move(name string, base uint32) error {
	s := m.Segment(name)
	if s == nil {
		return fmt.Errorf("move: no segment %q", name)
	}
	if base == s.Base {
		return nil
	}
	size := s.Size()
	if base+size < base {
		return fmt.Errorf("move %s: range %#x+%#x wraps address space", name, base, size)
	}
	for _, o := range m.segs {
		if o != s && base < o.End() && o.Base < base+size {
			return fmt.Errorf("move %s to %#x+%#x: overlaps segment %s at %#x+%#x",
				name, base, size, o.Name, o.Base, o.Size())
		}
	}
	s.Base = base
	sort.Slice(m.segs, func(i, j int) bool { return m.segs[i].Base < m.segs[j].Base })
	m.gen++
	return nil
}

// Unmap removes the named segment. It is a no-op if the segment does not
// exist.
func (m *Memory) Unmap(name string) {
	for i, s := range m.segs {
		if s.Name == name {
			m.segs = append(m.segs[:i], m.segs[i+1:]...)
			m.gen++
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

// seg returns the segment containing addr for an access of the given kind,
// or nil. The per-kind memo recycles the binary search across the long
// same-segment streaks CPU emulation produces (consecutive stack pushes,
// straight-line fetches); a stale hint is harmless because whatever
// segment passes the Contains check is by construction the right one.
func (m *Memory) seg(addr uint32, access Access) *Segment {
	if h := m.hint[access]; h < len(m.segs) {
		if s := m.segs[h]; s.Contains(addr) {
			return s
		}
	}
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
		m.hint[access] = lo
		return m.segs[lo]
	}
	return nil
}

// Find returns the segment containing addr, or nil.
func (m *Memory) Find(addr uint32) *Segment {
	return m.seg(addr, AccessRead)
}

// SetPerm changes the permissions of the named segment.
func (m *Memory) SetPerm(name string, perm Perm) error {
	s := m.Segment(name)
	if s == nil {
		return fmt.Errorf("setperm: no segment %q", name)
	}
	s.Perm = perm
	m.gen++
	return nil
}

func (m *Memory) fault(kind FaultKind, access Access, addr uint32) *Fault {
	f := &Fault{Kind: kind, Access: access, Addr: addr}
	if s := m.Find(addr); s != nil {
		f.Segment = s.Name
	}
	return f
}

// check locates the segment for a [addr, addr+n) access and validates
// permissions, bounds-checking exactly once for the whole width. Accesses
// may not span segments: real exploits in this lab never need to, and
// spanning would hide layout bugs. The bounds comparison is written
// overflow-safe: off+n can wrap uint32 for accesses near the top of a
// segment with a huge (attacker-controlled) length, which must fault, not
// pass.
func (m *Memory) check(addr, n uint32, access Access) (*Segment, uint32, *Fault) {
	s := m.seg(addr, access)
	if s == nil {
		return nil, 0, m.fault(FaultUnmapped, access, addr)
	}
	off := addr - s.Base
	if n > s.Size()-off { // off < Size via Contains; never underflows
		return nil, 0, m.fault(FaultUnmapped, access, s.End())
	}
	switch access {
	case AccessRead:
		if s.Perm&PermRead == 0 {
			return nil, 0, m.fault(FaultProtection, access, addr)
		}
	case AccessWrite:
		if s.Perm&PermWrite == 0 {
			return nil, 0, m.fault(FaultProtection, access, addr)
		}
	case AccessExec:
		if s.Perm&PermExec == 0 {
			return nil, 0, m.fault(FaultProtection, access, addr)
		}
		if m.wx && s.Perm&PermWrite != 0 {
			// W⊕X: never execute from writable memory.
			return nil, 0, m.fault(FaultProtection, access, addr)
		}
	}
	return s, off, nil
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

// Fetch reads up to n instruction bytes at addr, enforcing execute
// permission and the W⊕X policy. Fewer than n bytes may be returned when
// the segment ends before addr+n; callers decode what they receive.
//
// The returned slice aliases the segment's storage (no copy): callers must
// only read it and must not retain it across stores. Both CPU decoders
// consume the window immediately.
func (m *Memory) Fetch(addr, n uint32) ([]byte, *Fault) {
	w, _, f := m.FetchWindow(addr, n)
	return w, f
}

// FetchWindow is Fetch plus the containing segment's permissions, which
// block translators use to decide whether the returned bytes are immutable
// while Gen() is unchanged (they are exactly when the segment is not
// writable).
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
// same outcome a truncated Fetch window produces. perm is the containing
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
// gave it. Only dirty ranges are copied, so the megabyte stack and heap
// are sealed without being scanned or copied.
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

// Sealed reports whether Seal has captured a baseline.
func (m *Memory) Sealed() bool { return m.sealed != nil }

// Reset restores the address space to the sealed baseline: every
// accessor-written byte range is restored (or re-zeroed, for segments that
// were all-zero at Seal time — the stack/heap fast path, which avoids
// re-clearing a megabyte of stack that a trial only scribbled a few
// kilobytes of), and sealed permissions return. It reports false — leaving
// the space untouched — if Seal was never called or the segment set has
// changed since (a mapped or unmapped segment cannot be reconciled).
//
// Reset bumps Gen: block translations revalidate, and stale hints are
// harmless by construction. Writes that bypassed the accessors (direct
// Segment.Data stores) are invisible to the dirty tracking and survive a
// Reset; runtime code must not do that (see Segment).
func (m *Memory) Reset() bool {
	if !m.sameSegments() {
		return false
	}
	for _, ss := range m.sealed {
		s := ss.seg
		s.Perm = ss.perm
		if s.dirtyHi > s.dirtyLo {
			dst := s.Data[s.dirtyLo:s.dirtyHi]
			if ss.data == nil {
				clear(dst)
			} else {
				copy(dst, ss.data[s.dirtyLo:s.dirtyHi])
			}
		}
		s.clean()
	}
	m.gen++
	return true
}

// Clone returns a deep copy of the address space, used for snapshot/restore
// style debugging and for diversity experiments that perturb one copy. The
// clone starts unsealed and with a fresh generation.
func (m *Memory) Clone() *Memory {
	c := &Memory{wx: m.wx, gen: 1, segs: make([]*Segment, len(m.segs))}
	for i, s := range m.segs {
		d := make([]byte, len(s.Data))
		copy(d, s.Data)
		cs := &Segment{Name: s.Name, Base: s.Base, Perm: s.Perm, Data: d}
		cs.clean()
		c.segs[i] = cs
	}
	return c
}
