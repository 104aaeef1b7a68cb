// Package gadget finds code-reuse gadgets in linked images, playing the
// role ropper and ROPgadget play in the paper (§III-B2, §III-C): it scans
// executable sections for short instruction sequences ending in a control
// transfer an attacker can steer — `ret` on x86s; `pop {…, pc}`, `blx rN`
// or `bx rN` on arms — and it searches readable sections for single
// characters (ROPgadget's -memstr), which the ASLR exploit uses to
// assemble "/bin/sh" in .bss one byte at a time.
//
// Like the real tools, the finder works on the binary image, not a live
// process: for a non-PIE binary those addresses hold at runtime even under
// ASLR, which is exactly the bypass surface of §III-C.
package gadget

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
	"connlab/internal/mem"
	"connlab/internal/telemetry"
)

// Kind classifies what terminates a gadget.
type Kind uint8

// Gadget kinds.
const (
	// KindRet ends in x86s ret.
	KindRet Kind = iota + 1
	// KindPopPC ends in arms pop {…, pc}.
	KindPopPC
	// KindBlxReg is an arms blx rN.
	KindBlxReg
	// KindBxReg is an arms bx rN.
	KindBxReg
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRet:
		return "ret"
	case KindPopPC:
		return "pop-pc"
	case KindBlxReg:
		return "blx-reg"
	case KindBxReg:
		return "bx-reg"
	default:
		return "unknown"
	}
}

// Gadget is one usable instruction sequence.
type Gadget struct {
	Addr   uint32
	Kind   Kind
	Instrs []string
	// Pops lists the registers popped before control leaves, in pop order
	// (x86s: the pop run before ret; arms: the pop reglist minus pc).
	Pops []int
	// Reg is the register a blx/bx gadget branches through.
	Reg int
}

// String renders the gadget ropper-style.
func (g Gadget) String() string {
	out := fmt.Sprintf("%#08x:", g.Addr)
	for i, in := range g.Instrs {
		if i > 0 {
			out += " ;"
		}
		out += " " + in
	}
	return out
}

// maxGadgetInstrs bounds the sequence length reported.
const maxGadgetInstrs = 6

// secIndex is the scan result for one section, position-independent:
// gadget addresses and memstr offsets are section-relative, so the same
// index serves every image that places identical bytes at any base —
// which is how diversified layouts (same content, different addresses)
// share one scan.
type secIndex struct {
	// gadgets hold section-relative addresses, in ascending order.
	gadgets []Gadget
	// memPos[c] lists the section-relative offsets of byte value c in
	// ascending order (ROPgadget's -memstr, precomputed).
	memPos [256][]uint32
}

// scanKey identifies a section's scannable content. The hash (FNV-1a
// over the data) plus length and metadata stands in for the bytes
// themselves; sections with equal keys get the same index.
type scanKey struct {
	arch isa.Arch
	name string
	perm mem.Perm
	size int
	hash uint64
}

// DefaultScanCacheCap bounds the shared section-scan cache. Diversified
// build sweeps see thousands of distinct section contents; beyond the
// cap the least-recently-used index is dropped (and rebuilt on next
// sight).
const DefaultScanCacheCap = 4096

// scanEntry pairs a cache key with its index for LRU bookkeeping.
type scanEntry struct {
	key scanKey
	idx *secIndex
}

var (
	scanMu    sync.Mutex
	scanCache = make(map[scanKey]*list.Element)
	scanLRU   = list.New() // front = most recently used
	scanCap   = DefaultScanCacheCap
	// scanBuilds/scanHits instrument the cache for tests and reports.
	scanBuilds, scanHits atomic.Uint64
)

// setScanCacheCap changes the scan-cache bound, evicting immediately if
// the cache is over the new cap. Non-positive restores the default.
func setScanCacheCap(n int) {
	if n <= 0 {
		n = DefaultScanCacheCap
	}
	scanMu.Lock()
	scanCap = n
	evictOverCapLocked()
	scanMu.Unlock()
}

// FlushScanCache empties the scan cache. Benchmarks use it to model a
// fresh process; evictions from an explicit flush are not counted.
func FlushScanCache() {
	scanMu.Lock()
	scanCache = make(map[scanKey]*list.Element)
	scanLRU.Init()
	scanMu.Unlock()
}

// ScanCacheLen reports the number of cached section indexes.
func ScanCacheLen() int {
	scanMu.Lock()
	defer scanMu.Unlock()
	return len(scanCache)
}

// evictOverCapLocked drops LRU entries until the cache fits the cap.
func evictOverCapLocked() {
	for len(scanCache) > scanCap {
		oldest := scanLRU.Back()
		scanLRU.Remove(oldest)
		delete(scanCache, oldest.Value.(scanEntry).key)
		telemetry.Inc(telemetry.CtrGadgetScanEvict)
	}
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// sectionIndex returns the (possibly cached) index for a section.
// buildSecIndex is a pure function of (arch, section content), so a
// duplicate build racing a cache insert produces an identical index and
// either copy may win.
func sectionIndex(arch isa.Arch, sec image.Section) *secIndex {
	key := scanKey{arch: arch, name: sec.Name, perm: sec.Perm, size: len(sec.Data), hash: fnv64(sec.Data)}
	scanMu.Lock()
	if el, ok := scanCache[key]; ok {
		scanLRU.MoveToFront(el)
		scanMu.Unlock()
		scanHits.Add(1)
		telemetry.Inc(telemetry.CtrGadgetScanHit)
		return el.Value.(scanEntry).idx
	}
	scanMu.Unlock()
	idx := buildSecIndex(arch, sec)
	scanBuilds.Add(1)
	telemetry.Inc(telemetry.CtrGadgetScanBuild)
	scanMu.Lock()
	if el, ok := scanCache[key]; ok {
		idx = el.Value.(scanEntry).idx
		scanLRU.MoveToFront(el)
	} else {
		scanCache[key] = scanLRU.PushFront(scanEntry{key: key, idx: idx})
		telemetry.Inc(telemetry.CtrGadgetScanInsert)
		evictOverCapLocked()
	}
	scanMu.Unlock()
	return idx
}

// buildSecIndex scans one section at base 0.
func buildSecIndex(arch isa.Arch, sec image.Section) *secIndex {
	idx := &secIndex{}
	rel := sec
	rel.Addr = 0
	if sec.Perm&mem.PermExec != 0 {
		if arch == isa.ArchARMS {
			idx.gadgets = scanARM(rel)
		} else {
			idx.gadgets = scanX86(rel)
		}
		sort.Slice(idx.gadgets, func(i, j int) bool { return idx.gadgets[i].Addr < idx.gadgets[j].Addr })
	}
	for off, b := range sec.Data {
		idx.memPos[b] = append(idx.memPos[b], uint32(off))
	}
	return idx
}

// ScanCacheStats reports how many section scans were computed vs served
// from the shared index.
func ScanCacheStats() (builds, hits uint64) {
	return scanBuilds.Load(), scanHits.Load()
}

// placedSec is a cached section index rebased at its image address.
type placedSec struct {
	base uint32
	idx  *secIndex
}

// Finder serves gadget lookups for one linked image. The underlying
// scans are shared across finders via the per-content section index and
// rebased to this image's layout; lookups after construction are
// O(1) map probes and allocation-free. Returned gadgets share Instrs
// and Pops backing arrays with the cache — callers must treat them as
// read-only.
type Finder struct {
	img     *image.Image
	secs    []placedSec
	gadgets []Gadget
	popRet  map[int]Gadget
	popPC   map[uint32]Gadget
	blx     map[int]Gadget
}

// NewFinder indexes the image: per-section scans come from the shared
// cache (computed on first sight of the content), then gadgets are
// rebased and the lookup tables built.
func NewFinder(img *image.Image) *Finder {
	f := &Finder{img: img}
	total := 0
	for _, sec := range img.Sections {
		ps := placedSec{base: sec.Addr, idx: sectionIndex(img.Arch, sec)}
		f.secs = append(f.secs, ps)
		total += len(ps.idx.gadgets)
	}
	f.gadgets = make([]Gadget, 0, total)
	for _, ps := range f.secs {
		for _, g := range ps.idx.gadgets {
			g.Addr += ps.base
			f.gadgets = append(f.gadgets, g)
		}
	}
	sort.Slice(f.gadgets, func(i, j int) bool { return f.gadgets[i].Addr < f.gadgets[j].Addr })

	f.popRet = make(map[int]Gadget)
	f.popPC = make(map[uint32]Gadget)
	f.blx = make(map[int]Gadget)
	for _, g := range f.gadgets {
		switch g.Kind {
		case KindRet:
			// Only pure pop-runs qualify (a bare ret is the n=0 case),
			// mirroring the old linear FindPopRet predicate.
			if len(g.Instrs) == len(g.Pops)+1 {
				if _, seen := f.popRet[len(g.Pops)]; !seen {
					f.popRet[len(g.Pops)] = g
				}
			}
		case KindPopPC:
			mask := regMask(g.Pops)
			if _, seen := f.popPC[mask]; !seen {
				f.popPC[mask] = g
			}
		case KindBlxReg:
			if _, seen := f.blx[g.Reg]; !seen {
				f.blx[g.Reg] = g
			}
		}
	}
	return f
}

// regMask folds a register list into a bitmask key (registers are
// 0..14; pc never appears in Pops).
func regMask(regs []int) uint32 {
	var m uint32
	for _, r := range regs {
		m |= 1 << uint(r&31)
	}
	return m
}

// scanX86 finds every decodable suffix ending exactly on a ret byte.
func scanX86(sec image.Section) []Gadget {
	const lookback = 24
	var out []Gadget
	dec := newSecDecoder(sec.Data)
	for i, b := range sec.Data {
		if b != 0xC3 {
			continue
		}
		retOff := i
		// Try each start within lookback: keep sequences that decode
		// cleanly and land exactly on the ret.
		for start := retOff - lookback; start <= retOff; start++ {
			if start < 0 {
				continue
			}
			instrs, pops, ok := decodeRunX86(dec, start, retOff+1)
			if !ok || len(instrs) > maxGadgetInstrs {
				continue
			}
			out = append(out, Gadget{
				Addr:   sec.Addr + uint32(start),
				Kind:   KindRet,
				Instrs: instrs,
				Pops:   pops,
			})
		}
	}
	return out
}

// secDecoder memoizes decode results per section offset, so the lookback
// windows of neighboring ret bytes — which overlap almost entirely — decode
// each start offset once instead of once per window. Decoding against the
// full section tail instead of a window truncated at the ret is equivalent:
// the decoder is prefix-deterministic, so extra bytes can only turn a
// truncation failure into a longer instruction, which then overshoots the
// ret byte and is rejected exactly like the truncated decode was.
type secDecoder struct {
	data []byte
	// size[off] is 0 while undecoded, -1 for an illegal/truncated decode,
	// else the instruction length at off.
	size  []int8
	instr []x86s.Instr
}

func newSecDecoder(data []byte) *secDecoder {
	return &secDecoder{data: data, size: make([]int8, len(data)), instr: make([]x86s.Instr, len(data))}
}

// at decodes the instruction starting at off, memoized.
func (d *secDecoder) at(off int) (x86s.Instr, bool) {
	switch d.size[off] {
	case 0:
		in, err := x86s.Decode(d.data[off:])
		if err != nil {
			d.size[off] = -1
			return x86s.Instr{}, false
		}
		d.size[off] = int8(in.Size)
		d.instr[off] = in
		return in, true
	case -1:
		return x86s.Instr{}, false
	default:
		return d.instr[off], true
	}
}

// decodeRunX86 decodes [start, end) as consecutive instructions that must
// end with ret at the last byte. It also extracts the trailing pop-run
// registers.
func decodeRunX86(dec *secDecoder, start, end int) (instrs []string, pops []int, ok bool) {
	off := start
	var decoded []x86s.Instr
	for off < end {
		in, valid := dec.at(off)
		if !valid {
			return nil, nil, false
		}
		decoded = append(decoded, in)
		off += int(in.Size)
	}
	if off != end || len(decoded) == 0 || decoded[len(decoded)-1].Op != x86s.OpRet {
		return nil, nil, false
	}
	// A useful gadget must not transfer control before its ret.
	for _, in := range decoded[:len(decoded)-1] {
		switch in.Op {
		case x86s.OpRet, x86s.OpJmpRel, x86s.OpJcc, x86s.OpJecxz,
			x86s.OpCallRel, x86s.OpCallInd, x86s.OpJmpInd, x86s.OpInt, x86s.OpHlt:
			return nil, nil, false
		}
	}
	// Trailing run of pops immediately before ret.
	for _, in := range decoded[:len(decoded)-1] {
		if in.Op == x86s.OpPopR {
			pops = append(pops, in.R1)
		} else {
			pops = nil
		}
	}
	// Only count the pops if the whole body is pops (pure pop-ret gadget);
	// otherwise report the gadget without a pop summary.
	pure := true
	for _, in := range decoded[:len(decoded)-1] {
		if in.Op != x86s.OpPopR {
			pure = false
			break
		}
	}
	if !pure {
		pops = nil
	}
	for _, in := range decoded {
		instrs = append(instrs, in.String())
	}
	return instrs, pops, true
}

// scanARM inspects every 4-aligned word.
func scanARM(sec image.Section) []Gadget {
	var out []Gadget
	for off := 0; off+4 <= len(sec.Data); off += 4 {
		w := uint32(sec.Data[off]) | uint32(sec.Data[off+1])<<8 |
			uint32(sec.Data[off+2])<<16 | uint32(sec.Data[off+3])<<24
		in, err := arms.Decode(w)
		if err != nil {
			continue
		}
		addr := sec.Addr + uint32(off)
		switch in.Op {
		case arms.OpPop:
			if in.RegList&(1<<arms.PC) == 0 {
				continue
			}
			var pops []int
			for r := 0; r < 15; r++ {
				if in.RegList&(1<<r) != 0 {
					pops = append(pops, r)
				}
			}
			out = append(out, Gadget{
				Addr: addr, Kind: KindPopPC, Instrs: []string{in.String()}, Pops: pops,
			})
		case arms.OpBLX:
			out = append(out, Gadget{
				Addr: addr, Kind: KindBlxReg, Instrs: []string{in.String()}, Reg: in.Rd,
			})
		case arms.OpBX:
			out = append(out, Gadget{
				Addr: addr, Kind: KindBxReg, Instrs: []string{in.String()}, Reg: in.Rd,
			})
		}
	}
	return out
}

// All returns every discovered gadget, sorted by address.
func (f *Finder) All() []Gadget {
	out := make([]Gadget, len(f.gadgets))
	copy(out, f.gadgets)
	return out
}

// FindPopRet returns an x86s gadget that pops exactly n registers then
// rets (n=0 is a bare ret). O(1): the table holds the lowest-addressed
// pure pop-run per count, exactly what the old linear scan returned.
func (f *Finder) FindPopRet(n int) (Gadget, bool) {
	g, ok := f.popRet[n]
	return g, ok
}

// FindPopPC returns an arms pop gadget whose register list (excluding pc)
// is exactly regs. O(1) via a register-bitmask key.
func (f *Finder) FindPopPC(regs ...int) (Gadget, bool) {
	mask := regMask(regs)
	g, ok := f.popPC[mask]
	// Duplicate registers in the query fold into one mask bit; the old
	// predicate required len(Pops) == len(regs), so reject those.
	if ok && len(g.Pops) == len(regs) {
		return g, true
	}
	return Gadget{}, false
}

// FindBlxReg returns an arms blx gadget through the given register.
func (f *Finder) FindBlxReg(reg int) (Gadget, bool) {
	g, ok := f.blx[reg]
	return g, ok
}

// MemStr searches the image's readable sections for a byte value and
// returns every address holding it — ROPgadget's -memstr, used to harvest
// "/bin/sh" characters from a binary that never contains the whole string.
// The per-section positions come from the shared index; only the merged,
// rebased result slice is allocated.
func (f *Finder) MemStr(c byte) []uint32 {
	total := 0
	for _, ps := range f.secs {
		total += len(ps.idx.memPos[c])
	}
	if total == 0 {
		return nil
	}
	out := make([]uint32, 0, total)
	for _, ps := range f.secs {
		for _, off := range ps.idx.memPos[c] {
			out = append(out, ps.base+off)
		}
	}
	return out
}

// MemStrFirst returns the first address holding byte c (sections in
// image order, offsets ascending). Allocation-free.
func (f *Finder) MemStrFirst(c byte) (uint32, bool) {
	for _, ps := range f.secs {
		if pos := ps.idx.memPos[c]; len(pos) > 0 {
			return ps.base + pos[0], true
		}
	}
	return 0, false
}
