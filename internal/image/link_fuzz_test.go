package image_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"connlab/internal/image"
	"connlab/internal/isa"
)

// refDiff describes the first way got, a Link, differs from want, a
// refLink, through got's accessors, or returns "": layout, sections,
// every symbol and its Lookup, every import, the function entries, FuncAt
// at every byte of every function and PLT stub and the bytes just
// outside them, and .text's slide sites, varying sites and pieces.
func refDiff(got *image.Image, want *refImage) string {
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
		if g.Name != w.Name || g.Addr != w.Addr || g.Perm != w.Perm || !bytes.Equal(g.Data, w.Data) {
			return fmt.Sprintf("section %d is %s@%#x %v (%d bytes), want %s@%#x %v (%d bytes)",
				i, g.Name, g.Addr, g.Perm, len(g.Data), w.Name, w.Addr, w.Perm, len(w.Data))
		}
	}
	ws := make([]image.Symbol, 0, len(want.Symbols))
	for _, s := range want.Symbols {
		ws = append(ws, s)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Name < ws[j].Name })
	if gs := got.Symbols(); !slices.Equal(gs, ws) {
		return fmt.Sprintf("symbols differ:\n got %+v\nwant %+v", gs, ws)
	}
	for _, s := range ws {
		if a, ok := got.Lookup(s.Name); !ok || a != s.Addr {
			return fmt.Sprintf("Lookup(%q) = %#x, %v, want %#x", s.Name, a, ok, s.Addr)
		}
	}
	if got.NumImports() != len(want.GOT) || len(want.PLT) != len(want.GOT) {
		return fmt.Sprintf("%d imports, want %d", got.NumImports(), len(want.GOT))
	}
	for i := 0; i < got.NumImports(); i++ {
		imp := got.Import(i)
		plt, okp := want.PLT[imp.Name]
		slot, okg := want.GOT[imp.Name]
		if !okp || !okg || imp.PLT != plt || imp.GOT != slot || i > 0 && imp.Name <= got.Import(i-1).Name {
			return fmt.Sprintf("import %d is %+v, want %s at %#x and %#x, in name order", i, imp, imp.Name, plt, slot)
		}
	}
	if !slices.Equal(got.FuncEntries(), want.funcs) {
		return "function entries differ"
	}
	for _, s := range ws {
		if s.Section != ".text" && s.Section != ".plt" {
			continue
		}
		for off := uint32(0); off <= s.Size+1; off++ {
			a := s.Addr - 1 + off
			g, gok := got.FuncAt(a)
			w, wok := want.FuncAt(a)
			if g != w || gok != wok {
				return fmt.Sprintf("FuncAt(%#x) = %+v, %v, want %+v, %v", a, g, gok, w, wok)
			}
		}
	}
	sites, varying, pieces := image.Placement(got)
	if !slices.Equal(sites, want.sites) || !slices.Equal(varying, want.varying) || !slices.Equal(pieces, want.pieces) {
		return "slide sites, varying sites or pieces differ"
	}
	return ""
}

// FuzzLinkOptions holds Link, which shares each unit's options-independent
// parts across its links, to refLink, the link that built everything per
// call, over every victim build and libc of both ISAs (the ISA is the
// first input byte): random function orders (some not permutations) and
// paddings, and random layouts, unaligned bases and a missing GOT base
// included. Both must fail, or both link the same image.
func FuzzLinkOptions(f *testing.F) {
	f.Add(byte(0), byte(0), uint64(1), uint32(0), uint32(0))
	f.Add(byte(1), byte(3), uint64(7), uint32(0x1003), uint32(0xFFFFF000))
	f.Add(byte(0), byte(1), uint64(1009), uint32(0x08048001), uint32(0x12345678))
	f.Add(byte(1), byte(2), uint64(42), uint32(0xFFFF0000), uint32(3))
	builds := map[isa.Arch][]slideBuild{
		isa.ArchX86S: buildsForSlide(f, isa.ArchX86S),
		isa.ArchARMS: buildsForSlide(f, isa.ArchARMS),
	}
	f.Fuzz(func(t *testing.T, archSel, unitSel byte, seed uint64, base, spread uint32) {
		arch := isa.ArchX86S
		if archSel%2 == 1 {
			arch = isa.ArchARMS
		}
		bs := builds[arch]
		b := bs[int(unitSel)%len(bs)]
		rng := rand.New(rand.NewPCG(seed, uint64(base)^uint64(spread)<<32))
		n := len(b.unit.Funcs)

		var opts image.Options
		switch rng.IntN(8) {
		case 0: // the plain link
		case 1: // not a permutation, or not n long
			opts.Order = rng.Perm(n + rng.IntN(2))
			if len(opts.Order) == n && n > 1 {
				opts.Order[0] = opts.Order[1]
			}
		default:
			opts.Order = rng.Perm(n)
		}
		if rng.IntN(4) != 0 {
			opts.Pad = make([]int, rng.IntN(n+1))
			for i := range opts.Pad {
				opts.Pad[i] = rng.IntN(256)
			}
		}

		layout := b.layout
		switch rng.IntN(4) {
		case 0: // a slide of the default layout
			layout = layout.Slide(base &^ 0xFFF)
		case 1: // bases anywhere, spread apart
			layout = image.Layout{TextBase: base, RODataBase: base + spread, GOTBase: base + 2*spread,
				DataBase: base + 3*spread, BSSBase: base + 4*spread}
		case 2: // unaligned bases near the default ones
			layout = image.Layout{TextBase: layout.TextBase + spread%16, RODataBase: layout.RODataBase + spread>>4%4,
				GOTBase: layout.GOTBase + spread>>6%4, DataBase: layout.DataBase + spread>>8%4, BSSBase: layout.BSSBase + spread>>10%4}
		default: // every base random
			layout = image.Layout{TextBase: base, RODataBase: spread, GOTBase: rng.Uint32(),
				DataBase: rng.Uint32(), BSSBase: rng.Uint32()}
		}
		if rng.IntN(16) == 0 {
			layout.GOTBase = 0
		}

		want, werr := refLink(b.unit, layout, opts)
		got, gerr := image.Link(b.unit, layout, opts)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s %s at %+v, %+v: Link error %v, reference error %v", arch, b.name, layout, opts, gerr, werr)
		}
		if werr != nil {
			return
		}
		if d := refDiff(got, want); d != "" {
			t.Fatalf("%s %s at %+v, %+v: %s", arch, b.name, layout, opts, d)
		}
	})
}
