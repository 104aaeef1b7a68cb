// Command gadgetfind is the lab's ropper/ROPgadget analog: it links the
// victim binary and lists its code-reuse gadgets, or searches readable
// memory for single characters (-memstr), the way the paper harvests
// "/bin/sh" one byte at a time.
//
// Usage:
//
//	gadgetfind -arch arms
//	gadgetfind -arch x86s -memstr /bin/sh
package main

import (
	"flag"
	"fmt"
	"io"

	"connlab/cmd/internal/cli"
	"connlab/internal/gadget"
	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

func main() { cli.Main("gadgetfind", run) }

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("gadgetfind", flag.ContinueOnError)
	fs.SetOutput(stdout)
	archFlag := fs.String("arch", "x86s", "victim architecture: x86s or arms")
	memstr := fs.String("memstr", "", "search for each character of this string")
	variant := fs.String("variant", "connman", "victim variant: connman or dnsmasq")
	tel := cli.AddTelemetry(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tel.Start(&telemetry.RunInfo{Tool: "gadgetfind"}, nil); err != nil {
		return err
	}
	defer tel.Finish(&err)

	arch, err := isa.ParseArch(*archFlag)
	if err != nil {
		return err
	}
	v, err := victim.ParseVariant(*variant)
	if err != nil {
		return err
	}
	u, err := victim.BuildProgram(arch, victim.BuildOpts{Variant: v})
	if err != nil {
		return err
	}
	img, err := image.Link(u, image.DefaultProgramLayout(arch), image.Options{})
	if err != nil {
		return err
	}
	f := gadget.NewFinder(img)

	if *memstr != "" {
		for i := 0; i < len(*memstr); i++ {
			c := (*memstr)[i]
			addrs := f.MemStr(c)
			if len(addrs) == 0 {
				fmt.Fprintf(stdout, "%q: not found\n", string(c))
				continue
			}
			fmt.Fprintf(stdout, "%q: %#08x (+%d more)\n", string(c), addrs[0], len(addrs)-1)
		}
		return nil
	}

	all := f.All()
	fmt.Fprintf(stdout, "%d gadgets in %s %s image\n", len(all), arch, *variant)
	for _, g := range all {
		fmt.Fprintln(stdout, g)
	}
	return nil
}
