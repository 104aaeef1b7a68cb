package isatest

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"connlab/internal/defense"
	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
	"connlab/internal/mem"
	"connlab/internal/victim"
)

// keptCore is the block cache as FuzzKeptTranslation drives it: a
// dispatch entry refills a slot exactly as StepBlock's first Slow does.
type keptCore[I any] interface {
	ResetBlocks()
	Enter(max uint64)
	Slow(pc uint32) ([]isa.BlockInstr[I], isa.Event)
	Translate(pc uint32, ins []isa.BlockInstr[I]) []isa.BlockInstr[I]
}

// keptImages are one ISA's victim program linked plain and under two
// diversity seeds, and its libc, all at their default layouts.
type keptImages struct {
	prog [3]*image.Image
	libc *image.Image
}

var (
	keptOnce  sync.Once
	keptBuilt map[isa.Arch]keptImages
	keptErr   error
)

func keptImagesFor(t testing.TB, arch isa.Arch) keptImages {
	t.Helper()
	keptOnce.Do(func() {
		keptBuilt = map[isa.Arch]keptImages{}
		for _, a := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
			u, err := victim.BuildProgram(a, victim.BuildOpts{})
			if err != nil {
				keptErr = err
				return
			}
			var ki keptImages
			for i, seed := range []int64{0, 11, 12} {
				var opts image.Options
				if seed != 0 {
					opts = defense.DiversityOptions(u, seed)
				}
				if ki.prog[i], err = image.Link(u, image.DefaultProgramLayout(a), opts); err != nil {
					keptErr = err
					return
				}
			}
			lu, err := image.BuildLibc(a)
			if err != nil {
				keptErr = err
				return
			}
			if ki.libc, err = image.Link(lu, image.LibraryLayout(image.DefaultLibcBase(a)), image.Options{}); err != nil {
				keptErr = err
				return
			}
			keptBuilt[a] = ki
		}
	})
	if keptErr != nil {
		t.Fatal(keptErr)
	}
	return keptBuilt[arch]
}

// keptSlot is one image as the fuzzer mapped it under prefix: img is the
// image whose bytes the segments hold outside the slide sites (nil when
// nothing is mapped), and tainted records a store into its text, after
// which the bytes are no longer img's and only a remap describes them.
type keptSlot struct {
	prefix  string
	img     *image.Image
	tainted bool
}

// FuzzKeptTranslation is the referee for kept, rebased and library
// translations. Its input picks an ISA and a sequence of address-space
// operations over that ISA's victim images (the program plain and under
// two diversity seeds, and libc): map and unmap an image, slide one in
// place (a group Move plus a Patch of its slide sites, as a recycle
// does), move its sections without patching, change a section's
// permissions, store into a writable text, Seal and Reset. After every
// step it enters a dispatch at every function entry of the mapped images
// and at every instruction of the blocks there, each time with every
// slot missed, so each refill reuses, rebases, serves from the library
// or decodes as the cache decides; every block served must equal a fresh
// Translate at that PC.
func FuzzKeptTranslation(f *testing.F) {
	// Each step is an op byte, a slot byte (program or libc), a section
	// byte when the slot is mapped, and the op's arguments.
	for _, arch := range []byte{0, 1} {
		// Map both images, seal, slide the program, reset, slide both,
		// remap the program under both diversity seeds and plain, slide
		// it, move it without patching and slide it back.
		f.Add([]byte{arch, 0, 0, 0, 0, 0, 1, 0, 6, 0, 0, 2, 0, 0, 1, 7, 0, 0,
			2, 0, 0, 0xFD, 2, 1, 0, 2, 0, 0, 0, 1, 5, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1,
			2, 0, 0, 2, 3, 0, 0, 1, 2, 0, 0, 0xFF})
		// Make the program's text writable, store into it, make it
		// executable again and slide it (a remap, since its bytes are no
		// longer the image's); flip the libc text's permissions and
		// slide it.
		f.Add([]byte{arch, 0, 0, 0, 0, 0, 1, 0, 4, 0, 0, 7, 5, 0, 0, 0x30, 0x90,
			4, 0, 0, 5, 2, 0, 0, 2, 2, 1, 0, 0xFF, 4, 1, 0, 3, 4, 1, 0, 5, 2, 1, 0, 1})
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		r := &opReader{in: in}
		if r.byte()%2 == 0 {
			keptRun(t, r, isa.ArchX86S, func(m *mem.Memory) keptCore[x86s.Instr] { return x86s.New(m) })
		} else {
			keptRun(t, r, isa.ArchARMS, func(m *mem.Memory) keptCore[arms.Instr] { return arms.New(m) })
		}
	})
}

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

// delta is a page-aligned slide of up to ±8 MiB.
func (r *opReader) delta() uint32 { return uint32(int32(int8(r.byte()))) << 16 }

func keptRun[I any](t *testing.T, r *opReader, arch isa.Arch, newCPU func(*mem.Memory) keptCore[I]) {
	imgs := keptImagesFor(t, arch)
	m := mem.New()
	c := newCPU(m)
	slots := [2]*keptSlot{{prefix: ""}, {prefix: "libc"}}
	unmap := func(img *image.Image, prefix string) {
		for _, sec := range img.Sections {
			m.Unmap(prefix + sec.Name)
		}
	}
	remap := func(s *keptSlot, img *image.Image) {
		if s.img != nil {
			unmap(s.img, s.prefix)
		}
		s.img, s.tainted = nil, false
		if img.MapInto(m, s.prefix, nil) != nil {
			unmap(img, s.prefix) // a layout that overlaps: drop what mapped
			return
		}
		s.img = img
	}
	for step := 0; len(r.in) > 0 && step < 64; step++ {
		op, s := r.byte()%8, slots[r.byte()%2]
		var sec string
		if s.img != nil {
			sec = s.prefix + s.img.Sections[int(r.byte())%len(s.img.Sections)].Name
		}
		switch op {
		case 0: // map (or remap) a variant at a slide
			img := imgs.libc
			if s.prefix == "" {
				img = imgs.prog[r.byte()%3]
			}
			remap(s, img.Slide(r.delta()))
		case 1:
			if s.img != nil {
				unmap(s.img, s.prefix)
				s.img = nil
			}
		case 2: // slide in place, as a recycle does
			if s.img == nil {
				break
			}
			to := s.img.Slide(r.delta())
			if s.tainted {
				remap(s, to)
			} else if to.MapInto(m, s.prefix, s.img) == nil {
				s.img = to
			}
		case 3: // move the sections without patching the sites
			if s.img != nil {
				group := make([]*mem.Segment, len(s.img.Sections))
				for i, sc := range s.img.Sections {
					group[i] = m.Segment(s.prefix + sc.Name)
				}
				if group[0] != nil {
					_ = m.Move(group[0].Base+r.delta(), group...)
				}
			}
		case 4:
			_ = m.SetPerm(sec, mem.Perm(r.byte()%8))
		case 5: // store into the text, which only a writable one takes
			if text := m.Segment(s.prefix + ".text"); s.img != nil && text != nil {
				off := uint32(r.byte()) * text.Size() / 256
				if m.WriteU8(text.Base+off, r.byte()) == nil {
					s.tainted = true
				}
			}
		case 6:
			m.Seal()
		case 7:
			m.Reset()
		}
		checkKept(t, c, m, slots, step)
	}
}

// checkKept enters a dispatch at every function entry of the mapped
// images and at every instruction of the block each starts, with every
// slot missed, and requires the block served to equal a fresh translation.
func checkKept[I any](t *testing.T, c keptCore[I], m *mem.Memory, slots [2]*keptSlot, step int) {
	t.Helper()
	var pcs []uint32
	for _, s := range slots {
		text := m.Segment(s.prefix + ".text")
		if s.img == nil || text == nil {
			continue
		}
		shift := text.Base - s.img.Layout.TextBase
		for _, e := range s.img.FuncEntries() {
			pcs = append(pcs, e+shift)
			for _, b := range c.Translate(e+shift, nil) {
				pcs = append(pcs, b.PC)
			}
		}
	}
	for _, pc := range pcs {
		want := c.Translate(pc, nil)
		if len(want) == 0 {
			continue // dispatch would single-step it
		}
		c.ResetBlocks()
		c.Enter(1 << 20)
		if got, _ := c.Slow(pc); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: block served at %#x differs from a fresh translation:\n got %s\nwant %s",
				step, pc, keptDump(got), keptDump(want))
		}
	}
}

func keptDump[I any](ins []isa.BlockInstr[I]) string {
	s := ""
	for _, b := range ins {
		s += fmt.Sprintf("\n  %#x fx=%d %+v", b.PC, b.Fx, b.In)
	}
	return s
}
