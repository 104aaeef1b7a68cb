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

	"connlab/cmd/internal/cli"
	"connlab/internal/campaign"
	"connlab/internal/core"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/scenario"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

func main() { cli.Main("attack", run) }

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
	tel := cli.AddTelemetry(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	run := &telemetry.RunInfo{Tool: "attack", RootSeed: *seed, Devices: 1, Scenarios: 1}
	if err := tel.Start(run, func() *telemetry.RunInfo { return run }); err != nil {
		return err
	}
	defer tel.Finish(&err)

	arch, err := isa.ParseArch(*archFlag)
	if err != nil {
		return err
	}
	kind, err := exploit.ParseKind(*kindFlag)
	if err != nil {
		return err
	}
	lab := core.NewLab()
	lab.TargetSeed = *seed
	lab.Build.Patched = *patched
	if lab.Build.Variant, err = victim.ParseVariant(*variant); err != nil {
		return err
	}
	prot := campaign.Protection{
		WX: *wx, ASLR: *aslr, CFI: *cfi, Canary: *canary, DiversitySeed: *diversity,
	}

	if *scenarioFlag != "" {
		co := scenario.CompileOpts{
			Canary: *canary, CFI: *cfi, DiversitySeed: *diversity, Patched: *patched,
			Arch: arch, Kind: kind,
		}
		rep, err := cli.RunScenario(stdout, lab.Engine(), *scenarioFlag, co, fs)
		if err != nil {
			return err
		}
		tel.Run = &telemetry.RunInfo{Tool: "attack", RootSeed: *seed,
			Devices: rep.TotalDevices(), Scenarios: len(rep.Scenarios)}
		tel.Stages = rep.StageAggregates()
		return nil
	}

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
	tel.Trace = res.Trace
	return nil
}
