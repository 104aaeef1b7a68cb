package victim_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/victim"
)

// TestBuildGolden pins the fragment refactor: every legacy BuildOpts
// combination must link to byte-identical sections (and an identical
// symbol table) as the pre-refactor monolithic builders, captured in
// testdata/build_golden.txt.
func TestBuildGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/build_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		for _, v := range []victim.Variant{victim.VariantConnman, victim.VariantDnsmasq} {
			for _, patched := range []bool{false, true} {
				for _, canary := range []bool{false, true} {
					o := victim.BuildOpts{Variant: v, Patched: patched, Canary: canary}
					u, err := victim.BuildProgram(arch, o)
					if err != nil {
						t.Fatalf("%s %+v: %v", arch, o, err)
					}
					img, err := image.Link(u, image.DefaultProgramLayout(arch), image.Options{})
					if err != nil {
						t.Fatalf("%s %+v: %v", arch, o, err)
					}
					combo := fmt.Sprintf("%s/%s/patched=%v/canary=%v", arch, v, patched, canary)
					for _, sec := range img.Sections {
						fmt.Fprintf(&got, "%s %s addr=%#x len=%d sha256=%x\n",
							combo, sec.Name, sec.Addr, len(sec.Data), sha256.Sum256(sec.Data))
					}
					for _, s := range img.Symbols() {
						fmt.Fprintf(&got, "%s sym %s addr=%#x size=%d sec=%s\n", combo, s.Name, s.Addr, s.Size, s.Section)
					}
				}
			}
		}
	}
	if got.String() != string(want) {
		wantLines := strings.Split(string(want), "\n")
		gotLines := strings.Split(got.String(), "\n")
		for i := range wantLines {
			if i >= len(gotLines) || wantLines[i] != gotLines[i] {
				t.Fatalf("build golden diverged at line %d:\nwant %q\ngot  %q", i+1, wantLines[i], gotLines[i])
			}
		}
		t.Fatalf("build golden diverged: got %d lines, want %d", len(gotLines), len(wantLines))
	}
}
