package image_test

import (
	"bytes"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"connlab/internal/defense"
	"connlab/internal/image"
	"connlab/internal/isa"
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
// unit at the slid layout. It reports false when that layout does not
// link (a GOT base that wrapped to zero).
func checkSlide(t testing.TB, b slideBuild, delta uint32) bool {
	t.Helper()
	want, err := image.Link(b.unit, b.layout.Slide(delta), b.opts)
	if err != nil {
		return false
	}
	got := b.base.Slide(delta)
	if reflect.DeepEqual(got, want) {
		return true
	}
	switch {
	case got.Layout != want.Layout:
		t.Fatalf("%s by %#x: layout %+v, want %+v", b.name, delta, got.Layout, want.Layout)
	case len(got.Sections) != len(want.Sections):
		t.Fatalf("%s by %#x: %d sections, want %d", b.name, delta, len(got.Sections), len(want.Sections))
	}
	for i, g := range got.Sections {
		w := want.Sections[i]
		if g.Name != w.Name || g.Addr != w.Addr || g.Perm != w.Perm {
			t.Fatalf("%s by %#x: section %d is %s@%#x %v, want %s@%#x %v",
				b.name, delta, i, g.Name, g.Addr, g.Perm, w.Name, w.Addr, w.Perm)
		}
		if !bytes.Equal(g.Data, w.Data) {
			off := 0
			for off < len(g.Data) && off < len(w.Data) && g.Data[off] == w.Data[off] {
				off++
			}
			t.Fatalf("%s by %#x: section %s differs at offset %#x", b.name, delta, g.Name, off)
		}
	}
	switch {
	case !maps.Equal(got.Symbols, want.Symbols):
		t.Fatalf("%s by %#x: symbol maps differ", b.name, delta)
	case !maps.Equal(got.PLT, want.PLT) || !maps.Equal(got.GOT, want.GOT):
		t.Fatalf("%s by %#x: PLT/GOT maps differ", b.name, delta)
	case !slices.Equal(got.FuncEntries(), want.FuncEntries()):
		t.Fatalf("%s by %#x: function entries differ", b.name, delta)
	}
	t.Fatalf("%s by %#x: slid image differs from the relink in its slide sites", b.name, delta)
	return false
}

// TestSlideMatchesLink is the referee for Slide: for 10⁴ random
// page-aligned deltas per ISA, sliding each build's link by the delta
// must give exactly the image a full relink at the slid layout gives,
// section for section, byte for byte and map for map, function entries
// and slide sites included.
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
					if checkSlide(t, b, delta) {
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
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s layout %d: Linked differs from Link", arch, i)
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
			checkSlide(t, b, delta&^0xFFF)
		}
	})
}
