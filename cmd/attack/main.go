// Command attack builds one exploit for the Connman-analog victim and
// fires it at a fresh instance under a chosen protection level.
//
// Usage:
//
//	attack -arch arms -kind rop-memcpy -wx -aslr
//	attack -arch x86s -kind code-injection
//	attack -arch x86s -auto -wx -aslr     # pick the strategy automatically
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"connlab/internal/campaign"
	"connlab/internal/core"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/obs"
	"connlab/internal/scenario"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "attack:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("attack", flag.ContinueOnError)
	fs.SetOutput(stdout)
	archFlag := fs.String("arch", "x86s", "victim architecture: x86s or arms")
	kindFlag := fs.String("kind", "dos",
		"exploit kind: dos, code-injection, ret2libc, rop-execlp, rop-memcpy")
	auto := fs.Bool("auto", false, "pick the strategy for the protections automatically")
	wx := fs.Bool("wx", false, "enable W⊕X on the target")
	aslr := fs.Bool("aslr", false, "enable ASLR on the target")
	cfi := fs.Bool("cfi", false, "enable the CFI shadow stack mitigation")
	canary := fs.Bool("canary", false, "build the victim with stack canaries")
	diversity := fs.Int64("diversity", 0, "diversity seed (0 = off)")
	patched := fs.Bool("patched", false, "run the patched (1.35) victim")
	variant := fs.String("variant", "connman", "victim variant: connman or dnsmasq")
	seed := fs.Int64("seed", 2002, "target machine seed")
	scenarioFlag := fs.String("scenario", "", "run a declarative scenario (embedded `name` or .scn file) instead of one attack")
	tf := telemetry.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// Telemetry must be live before the lab is built: instrumented
	// components take their metric handles at construction.
	if err := tf.Start(); err != nil {
		return err
	}
	srv, err := obs.StartFlags(tf, "attack", func() *telemetry.RunInfo {
		return &telemetry.RunInfo{Tool: "attack", RootSeed: *seed, Devices: 1, Scenarios: 1}
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	arch := isa.Arch(*archFlag)
	if arch != isa.ArchX86S && arch != isa.ArchARMS {
		return fmt.Errorf("unknown arch %q", *archFlag)
	}
	lab := core.NewLab()
	lab.TargetSeed = *seed
	lab.Build.Patched = *patched
	switch *variant {
	case "connman":
	case "dnsmasq":
		lab.Build.Variant = victim.VariantDnsmasq
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}
	prot := campaign.Protection{
		WX: *wx, ASLR: *aslr, CFI: *cfi, Canary: *canary, DiversitySeed: *diversity,
	}

	if *scenarioFlag != "" {
		co := scenario.CompileOpts{
			Canary: *canary, CFI: *cfi, DiversitySeed: *diversity, Patched: *patched,
		}
		if explicit["arch"] {
			co.Arch = arch
		}
		if explicit["kind"] {
			co.Kind = exploit.Kind(*kindFlag)
		}
		_, rep, rerr := scenario.Run(lab.Engine(), *scenarioFlag, co)
		if rep != nil {
			fmt.Fprint(stdout, rep.Canonical())
		}
		if rerr != nil {
			return rerr
		}
		fmt.Fprintf(stdout, "all device outcomes within spec predicates\n")
		run := &telemetry.RunInfo{Tool: "attack", RootSeed: *seed,
			Devices: rep.TotalDevices(), Scenarios: len(rep.Scenarios)}
		return tf.Finish(run, rep.StageAggregates(), nil)
	}

	kind := exploit.Kind(*kindFlag)
	if *auto {
		kind = exploit.StrategyFor(arch, prot.WX, prot.ASLR)
		fmt.Fprintf(stdout, "auto-selected strategy: %s\n", kind)
	}
	res, err := lab.RunAttack(arch, kind, prot)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "arch:       %s\n", arch)
	fmt.Fprintf(stdout, "attack:     %s\n", kind)
	fmt.Fprintf(stdout, "protection: %s\n", prot)
	fmt.Fprintf(stdout, "outcome:    %s\n", res.Outcome)
	fmt.Fprintf(stdout, "detail:     %s\n", res.Detail)
	if len(res.Trace) > 0 {
		fmt.Fprintf(stdout, "hijack flight recorder (%d control transfers):\n", len(res.Trace))
		fmt.Fprint(stdout, telemetry.FormatControlTrace(res.Trace))
	}
	run := &telemetry.RunInfo{Tool: "attack", RootSeed: *seed, Devices: 1, Scenarios: 1}
	if ferr := tf.Finish(run, nil, res.Trace); ferr != nil {
		return ferr
	}
	return nil
}
