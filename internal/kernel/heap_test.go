package kernel

import (
	"bytes"
	"testing"

	"connlab/internal/image"
	"connlab/internal/isa"
)

// arenaHello is guardedHello declaring HeapCursor, as a heap-site victim
// does.
func arenaHello(t *testing.T, arch isa.Arch) *image.Unit {
	t.Helper()
	return guardedHello(t, arch, 0).AddData(HeapCursor, make([]byte, 4))
}

// segmentSize returns the size of p's named segment.
func segmentSize(t *testing.T, p *Process, name string) uint32 {
	t.Helper()
	s := p.Mem().Segment(name)
	if s == nil {
		t.Fatalf("no %s segment", name)
	}
	return s.Size()
}

// TestAddressSpaceSizes: a fresh Load maps a 64 KiB stack and a 64 KiB
// heap, and a program that declares the allocator's cursor gets a heap
// through the end of its arena instead.
func TestAddressSpaceSizes(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			libc := buildLibc(t, arch)
			for _, tc := range []struct {
				name string
				prog *image.Unit
				heap uint32
			}{
				{"plain", guardedHello(t, arch, 0), 64 << 10},
				{"arena", arenaHello(t, arch), ArenaOffset + ArenaSize},
			} {
				p, err := Load(tc.prog, libc, Config{ASLR: true, Seed: 3})
				if err != nil {
					t.Fatalf("%s: load: %v", tc.name, err)
				}
				if got := segmentSize(t, p, "stack"); got != 64<<10 {
					t.Errorf("%s: stack is %#x bytes, want 64 KiB", tc.name, got)
				}
				if got := segmentSize(t, p, "heap"); got != tc.heap {
					t.Errorf("%s: heap is %#x bytes, want %#x", tc.name, got, tc.heap)
				}
				if p.HeapBase() != HeapBaseFor(arch) {
					t.Errorf("%s: heap at %#x, want %#x", tc.name, p.HeapBase(), HeapBaseFor(arch))
				}
				if res, err := p.Call("main"); err != nil || res.Status != StatusReturned {
					t.Errorf("%s: call: %+v, %v", tc.name, res, err)
				}
			}
		})
	}
}

// segmentState is one segment's observable state.
type segmentState struct {
	name string
	base uint32
	perm string
	data []byte
}

// processState records what a refused recycle must leave as it was.
func processState(p *Process) (gen uint64, segs []segmentState) {
	for _, s := range p.Mem().Segments() {
		segs = append(segs, segmentState{s.Name, s.Base, s.Perm.String(), bytes.Clone(s.Data)})
	}
	return p.Mem().CodeGen(), segs
}

// TestRecycleRefusesOtherHeapSize: a process recycled between a program
// with the arena and one without would keep a heap of the wrong size, so
// RecycleWith refuses in both directions and leaves the process
// untouched; recycling onto a unit of the same heap size still matches a
// fresh Load.
func TestRecycleRefusesOtherHeapSize(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			libc := buildLibc(t, arch)
			arena, plain := arenaHello(t, arch), guardedHello(t, arch, 0)
			for _, tc := range []struct{ from, to *image.Unit }{{arena, plain}, {plain, arena}} {
				cfg := Config{ASLR: true, Seed: 4}
				p, err := Load(tc.from, libc, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.Call("main"); err != nil {
					t.Fatalf("warmup call: %v", err)
				}
				gen, segs := processState(p)
				prog, stdout := p.Prog, p.Stdout()
				if p.RecycleWith(tc.to, libc, Config{ASLR: true, Seed: 5}) {
					t.Fatal("recycle onto a unit of another heap size accepted, want refused")
				}
				gen2, segs2 := processState(p)
				if gen2 != gen || len(segs2) != len(segs) {
					t.Fatalf("refused recycle changed the address space: gen %d -> %d, %d -> %d segments",
						gen, gen2, len(segs), len(segs2))
				}
				for i := range segs {
					a, b := segs[i], segs2[i]
					if a.name != b.name || a.base != b.base || a.perm != b.perm || !bytes.Equal(a.data, b.data) {
						t.Errorf("refused recycle changed segment %s", a.name)
					}
				}
				if u, _ := p.Units(); u != tc.from || p.Prog != prog || p.Stdout() != stdout {
					t.Error("refused recycle rebound the process")
				}
				if !p.Recycle(Config{ASLR: true, Seed: 5}) {
					t.Fatal("recycle onto the process's own unit refused")
				}
				fresh, err := Load(tc.from, libc, Config{ASLR: true, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				compareProcesses(t, p, fresh)
			}
		})
	}
}
