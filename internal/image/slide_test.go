package image_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"connlab/internal/defense"
	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/mem"
	"connlab/internal/victim"
)

// slideBuild is one unit the slide referee links: a victim program
// build, libc, or a diversity link of the pristine program.
type slideBuild struct {
	name   string
	unit   *image.Unit
	layout image.Layout
	opts   image.Options
	base   *image.Image // Link(unit, layout, opts)
}

var (
	slideOnce   sync.Once
	slideBuilds map[isa.Arch][]slideBuild
	slideErr    error
)

// buildsForSlide returns the program, libc, patched, canary and two
// diversity builds of arch, each linked at its default layout.
func buildsForSlide(t testing.TB, arch isa.Arch) []slideBuild {
	t.Helper()
	slideOnce.Do(func() {
		slideBuilds = make(map[isa.Arch][]slideBuild)
		for _, a := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
			var bs []slideBuild
			prog := image.DefaultProgramLayout(a)
			for _, v := range []struct {
				name string
				opts victim.BuildOpts
			}{{"program", victim.BuildOpts{}}, {"patched", victim.BuildOpts{Patched: true}}, {"canary", victim.BuildOpts{Canary: true}}} {
				u, err := victim.BuildProgram(a, v.opts)
				if err != nil {
					slideErr = err
					return
				}
				bs = append(bs, slideBuild{name: v.name, unit: u, layout: prog})
			}
			for _, seed := range []int64{7, 1009} {
				u := bs[0].unit
				bs = append(bs, slideBuild{name: "diversity", unit: u, layout: prog, opts: defense.DiversityOptions(u, seed)})
			}
			libc, err := image.BuildLibc(a)
			if err != nil {
				slideErr = err
				return
			}
			bs = append(bs, slideBuild{name: "libc", unit: libc, layout: image.LibraryLayout(image.DefaultLibcBase(a))})
			for i := range bs {
				if bs[i].base, err = image.Link(bs[i].unit, bs[i].layout, bs[i].opts); err != nil {
					slideErr = err
					return
				}
			}
			slideBuilds[a] = bs
		}
	})
	if slideErr != nil {
		t.Fatal(slideErr)
	}
	return slideBuilds[arch]
}

// checkSlide requires b.base slid by delta to equal a fresh link of the
// unit at the slid layout (see imageDiff; FuncAt is asked at every
// function byte when allBytes is set). It reports false when that layout
// does not link (a GOT base that wrapped to zero).
func checkSlide(t testing.TB, b slideBuild, delta uint32, allBytes bool) bool {
	t.Helper()
	want, err := image.Link(b.unit, b.layout.Slide(delta), b.opts)
	if err != nil {
		return false
	}
	if d := imageDiff(b.base.Slide(delta), want, allBytes); d != "" {
		t.Fatalf("%s by %#x: %s", b.name, delta, d)
	}
	// A slid image slid again must equal the relink too.
	mid := delta / 2 &^ 0xFFF
	if d := imageDiff(b.base.Slide(mid).Slide(delta-mid), want, false); d != "" {
		t.Fatalf("%s by %#x then %#x: %s", b.name, mid, delta-mid, d)
	}
	return true
}

// imageDiff describes the first way got differs from want through the
// accessors, or returns "": layout, sections (name, address, permissions,
// bytes), every symbol (name, address, size, section) and its Lookup,
// every import (PLT stub and GOT slot), the function entries and, for
// every function and PLT stub, FuncAt at its first and last byte and the
// bytes just outside it (at every byte with allBytes), and .text's slide
// sites, varying sites and pieces.
func imageDiff(got, want *image.Image, allBytes bool) string {
	switch {
	case got.Arch != want.Arch:
		return fmt.Sprintf("arch %s, want %s", got.Arch, want.Arch)
	case got.Layout != want.Layout:
		return fmt.Sprintf("layout %+v, want %+v", got.Layout, want.Layout)
	case len(got.Sections) != len(want.Sections):
		return fmt.Sprintf("%d sections, want %d", len(got.Sections), len(want.Sections))
	}
	for i, g := range got.Sections {
		w := want.Sections[i]
		if g.Name != w.Name || g.Addr != w.Addr || g.Perm != w.Perm {
			return fmt.Sprintf("section %d is %s@%#x %v, want %s@%#x %v", i, g.Name, g.Addr, g.Perm, w.Name, w.Addr, w.Perm)
		}
		if !bytes.Equal(g.Data, w.Data) {
			off := 0
			for off < len(g.Data) && off < len(w.Data) && g.Data[off] == w.Data[off] {
				off++
			}
			return fmt.Sprintf("section %s differs at offset %#x", g.Name, off)
		}
	}
	gs, ws := got.Symbols(), want.Symbols()
	if !slices.Equal(gs, ws) {
		return fmt.Sprintf("symbols differ:\n got %+v\nwant %+v", gs, ws)
	}
	for _, s := range ws {
		if a, ok := got.Lookup(s.Name); !ok || a != s.Addr {
			return fmt.Sprintf("Lookup(%q) = %#x, %v, want %#x", s.Name, a, ok, s.Addr)
		}
	}
	if got.NumImports() != want.NumImports() {
		return fmt.Sprintf("%d imports, want %d", got.NumImports(), want.NumImports())
	}
	for i := 0; i < want.NumImports(); i++ {
		if g, w := got.Import(i), want.Import(i); g != w {
			return fmt.Sprintf("import %d is %+v, want %+v", i, g, w)
		}
	}
	entries := want.FuncEntries()
	if !slices.Equal(got.FuncEntries(), entries) {
		return "function entries differ"
	}
	for _, e := range entries {
		for _, a := range [...]uint32{e - 1, e, e + 1} {
			if _, want := slices.BinarySearch(entries, a); got.IsFuncEntry(a) != want {
				return fmt.Sprintf("IsFuncEntry(%#x) = %v, want %v", a, !want, want)
			}
		}
	}
	for _, s := range ws {
		if s.Section != ".text" && s.Section != ".plt" || s.Size == 0 {
			continue
		}
		at := []uint32{s.Addr - 1, s.Addr, s.Addr + s.Size - 1, s.Addr + s.Size}
		if allBytes {
			for off := uint32(1); off+1 < s.Size; off++ {
				at = append(at, s.Addr+off)
			}
		}
		for _, a := range at {
			g, gok := got.FuncAt(a)
			w, wok := want.FuncAt(a)
			if g != w || gok != wok {
				return fmt.Sprintf("FuncAt(%#x) = %+v, %v, want %+v, %v", a, g, gok, w, wok)
			}
		}
	}
	gsites, gvary, gpieces := image.Placement(got)
	wsites, wvary, wpieces := image.Placement(want)
	if !slices.Equal(gsites, wsites) || !slices.Equal(gvary, wvary) || !slices.Equal(gpieces, wpieces) {
		return "slide sites, varying sites or pieces differ"
	}
	return ""
}

// TestSlideMatchesLink is the referee for Slide: for 10⁴ random
// page-aligned deltas per ISA, sliding each build's link by the delta
// must give exactly the image a full relink at the slid layout gives,
// section for section, byte for byte and through every accessor (every
// symbol, import and function entry, and FuncAt around every function,
// at every byte of it for every 16th delta), slide sites included, and
// so must sliding it there in two steps.
func TestSlideMatchesLink(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		builds := buildsForSlide(t, arch)
		t.Run(string(arch), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewPCG(1, uint64(len(arch))))
			checked := 0
			for i := 0; i < 10_000; i++ {
				delta := rng.Uint32() &^ 0xFFF
				for _, b := range builds {
					if checkSlide(t, b, delta, i%16 == 0) {
						checked++
					}
				}
			}
			if checked < 10_000*len(builds)*99/100 {
				t.Errorf("only %d slides checked", checked)
			}
		})
	}
}

// TestLinkedSlidesTheMemo pins Unit.Linked: every call, first or memoized,
// equals a full link at the requested layout, and a repeated layout
// returns the shared image itself.
func TestLinkedSlidesTheMemo(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		libc, err := image.BuildLibc(arch)
		if err != nil {
			t.Fatal(err)
		}
		first := image.LibraryLayout(image.DefaultLibcBase(arch))
		var shared *image.Image
		for i, lay := range []image.Layout{first, image.LibraryLayout(image.DefaultLibcBase(arch) + 0x5000), first,
			{TextBase: 0x100000, RODataBase: 0x300000, DataBase: 0x200000, BSSBase: 0x280000}} {
			got, err := libc.Linked(lay, image.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := image.Link(libc, lay, image.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if d := imageDiff(got, want, true); d != "" {
				t.Errorf("%s layout %d: Linked differs from Link: %s", arch, i, d)
			}
			if i == 0 {
				shared = got
			} else if i == 2 && got != shared {
				t.Errorf("%s: repeated layout did not return the shared link", arch)
			}
		}
	}
}

// FuzzSlide fuzzes the slide delta (rounded down to a page) over every
// build of both ISAs.
func FuzzSlide(f *testing.F) {
	for _, d := range []uint32{0, 0x1000, 0x7FF000, 0x80000000, 0xFFFFF000, 0x48FB8000} {
		f.Add(d)
	}
	builds := append(buildsForSlide(f, isa.ArchX86S), buildsForSlide(f, isa.ArchARMS)...)
	f.Fuzz(func(t *testing.T, delta uint32) {
		for _, b := range builds {
			checkSlide(t, b, delta&^0xFFF, true)
		}
	})
}

// TestSlideAllocs pins what a slide allocates: the image, its section
// list and the patched .text, whatever the image's symbol count.
func TestSlideAllocs(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		for _, b := range buildsForSlide(t, arch) {
			img := b.base.Slide(0x5000)
			if n := testing.AllocsPerRun(100, func() { img.Slide(0x3000) }); n > 3 {
				t.Errorf("%s %s: Slide allocates %v times, want at most 3", arch, b.name, n)
			}
		}
	}
}

// TestMapIntoSlideAllocs: placing a slide of the libc that is mapped, as
// an ASLR recycle does, moves its segments where the slide has them and
// allocates nothing.
func TestMapIntoSlideAllocs(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		u, err := image.BuildLibc(arch)
		if err != nil {
			t.Fatal(err)
		}
		lay := image.LibraryLayout(image.DefaultLibcBase(arch))
		base, err := u.Linked(lay, image.Options{})
		if err != nil {
			t.Fatal(err)
		}
		a, b := base.Slide(0x10000), base.Slide(0x30000)
		m := mem.New()
		if err := a.MapInto(m, "libc", nil); err != nil {
			t.Fatal(err)
		}
		segs := m.Segments()
		var failed error
		n := testing.AllocsPerRun(100, func() {
			if err := b.MapInto(m, "libc", a); err != nil {
				failed = err
			}
			if err := a.MapInto(m, "libc", b); err != nil {
				failed = err
			}
		})
		if failed != nil {
			t.Fatalf("%s: slide: %v", arch, failed)
		}
		if n != 0 {
			t.Errorf("%s: a libc slide allocates %v times, want 0", arch, n)
		}
		for i, s := range m.Segments() {
			if s != segs[i] || s.Base != a.Sections[i].Addr || !bytes.Equal(s.Data, a.Sections[i].Data) {
				t.Errorf("%s: %s at %#x after the slides, want the segment mapped at %#x with %s's bytes",
					arch, s.Name, s.Base, a.Sections[i].Addr, a.Sections[i].Name)
			}
		}
	}
}

// TestLinkedConcurrent links one fresh unit from several goroutines at
// once, as a campaign's workers do, through the memo and directly: the
// unit's shared part is built by whichever link comes first, and every
// memoized or slid image must equal a direct link (run it under -race).
func TestLinkedConcurrent(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		u, err := victim.BuildProgram(arch, victim.BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		base := image.DefaultProgramLayout(arch)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for seed := int64(1); seed <= 8; seed++ {
					opts := defense.DiversityOptions(u, seed)
					lay := base.Slide(uint32(w+int(seed)) * 0x1000)
					got, err := u.Linked(lay, opts)
					if err != nil {
						t.Error(err)
						return
					}
					want, err := image.Link(u, lay, opts)
					if err != nil {
						t.Error(err)
						return
					}
					if d := imageDiff(got, want, false); d != "" {
						t.Errorf("%s seed %d, worker %d: %s", arch, seed, w, d)
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
