package core

import (
	"fmt"
	"sort"
	"strings"

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/scenario"
	"connlab/internal/victim"
)

// ExperimentIDs lists every reproducible experiment in order: e1–e12 map
// to the paper, x1–x2 are the lab's extension experiments.
func ExperimentIDs() []string {
	return []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e9scale", "e10",
		"e11", "e12", "x1", "x2", "x3"}
}

// RunExperiment executes one experiment by id and renders its report.
func (l *Lab) RunExperiment(id string) (string, error) {
	switch strings.ToLower(id) {
	case "e1":
		return l.reportE1()
	case "e2":
		return l.reportSingle("E2 §III-A1: x86 code injection, no protections",
			isa.ArchX86S, exploit.KindCodeInjection, campaign.LevelNone)
	case "e3":
		return l.reportSingle("E3 §III-A2: ARM code injection, no protections",
			isa.ArchARMS, exploit.KindCodeInjection, campaign.LevelNone)
	case "e4":
		return l.reportSingle("E4 §III-B1: x86 ret2libc under W⊕X",
			isa.ArchX86S, exploit.KindRet2Libc, campaign.LevelWX)
	case "e5":
		return l.reportSingle("E5 §III-B2 (Listing 2): ARM execlp ROP under W⊕X",
			isa.ArchARMS, exploit.KindRopExeclp, campaign.LevelWX)
	case "e6":
		return l.reportSingle("E6 §III-C1 (Listings 3-4): x86 memcpy-chain ROP under W⊕X+ASLR",
			isa.ArchX86S, exploit.KindRopMemcpy, campaign.LevelWXASLR)
	case "e7":
		return l.reportSingle("E7 §III-C2 (Listing 5): ARM blx-chain ROP under W⊕X+ASLR",
			isa.ArchARMS, exploit.KindRopMemcpy, campaign.LevelWXASLR)
	case "e8":
		return l.reportE8()
	case "e9":
		return l.reportE9()
	case "e9scale":
		return l.reportE9Scale()
	case "e10":
		return l.reportE10()
	case "e11":
		return l.reportE11()
	case "e12":
		return l.reportE12()
	case "x1":
		return l.reportX1()
	case "x2":
		return l.reportX2()
	case "x3":
		return l.reportX3()
	default:
		return "", fmt.Errorf("unknown experiment %q (want e1..e12)", id)
	}
}

// RunAllExperiments renders every report.
func (l *Lab) RunAllExperiments() (string, error) {
	var sb strings.Builder
	for _, id := range ExperimentIDs() {
		rep, err := l.RunExperiment(id)
		if err != nil {
			return sb.String(), fmt.Errorf("%s: %w", id, err)
		}
		sb.WriteString(rep)
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

func header(title string) string {
	return fmt.Sprintf("%s\n%s\n", title, strings.Repeat("-", len(title)))
}

// reportE1 is the DoS experiment: oversized name vs 1.34 and 1.35.
func (l *Lab) reportE1() (string, error) {
	var sb strings.Builder
	sb.WriteString(header("E1 §II: CVE-2017-12865 DoS — oversized Type A name vs Connman 1.34/1.35"))
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		for _, patched := range []bool{false, true} {
			opts := l.Build
			opts.Patched = patched
			d, err := victim.NewDaemon(arch, opts, kernel.Config{Seed: l.TargetSeed})
			if err != nil {
				return "", err
			}
			ex := exploit.BuildDoS(arch)
			res, err := FireAt(d, ex)
			if err != nil {
				return "", err
			}
			outcome, detail := campaign.Classify(res)
			fmt.Fprintf(&sb, "  %-5s connman-%-5s -> %-10s %s\n",
				arch, opts.Version(), outcome, detail)
		}
	}
	return sb.String(), nil
}

// reportSingle runs one attack cell with payload detail.
func (l *Lab) reportSingle(title string, arch isa.Arch, kind exploit.Kind, p campaign.Protection) (string, error) {
	var sb strings.Builder
	sb.WriteString(header(title))
	tgt, err := l.Recon(arch, p)
	if err != nil {
		return "", err
	}
	ex, err := exploit.Build(tgt, kind)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "  recon: ret offset %d, null slots %v, buffer %#x\n",
		tgt.Frame.RetOffset, tgt.Frame.NullOffsets, tgt.BufferAddr)
	fmt.Fprintf(&sb, "  payload: %s (%d-byte label stream)\n", ex.Description, len(ex.Stream))
	r, err := l.RunAttack(arch, kind, p)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "  result: %s -> %s (%s)\n", p, r.Outcome, r.Detail)
	return sb.String(), nil
}

// reportE8 renders the full attack matrix: every exploit kind against
// every paper protection level on both architectures, 30 single-device
// cells in one engine run.
func (l *Lab) reportE8() (string, error) {
	var sb strings.Builder
	sb.WriteString(header("E8 §III: attack x protection matrix (the paper's central result)"))
	cells, err := l.paperMatrix()
	if err != nil {
		return "", err
	}
	rep, err := l.Engine().Run(cells)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "  %-5s %-15s %-12s %-10s\n", "arch", "attack", "protection", "outcome")
	for _, sr := range rep.Scenarios {
		s := sr.Scenario
		fmt.Fprintf(&sb, "  %-5s %-15s %-12s %-10s\n", s.Arch, s.Kind, s.Protection, sr.Devices[0].Outcome)
	}
	return sb.String(), nil
}

// paperMatrix compiles the §III matrix from the embedded connman spec,
// in its arch → level → kind order, with every cell on the lab's seeds
// and builds. The diagonal of working exploits and the off-diagonal
// failures (injection vs W⊕X, ret2libc vs ASLR) are the paper's central
// result.
func (l *Lab) paperMatrix() ([]campaign.Scenario, error) {
	spec, err := scenario.Load("connman")
	if err != nil {
		return nil, err
	}
	cells, err := scenario.Compile(spec, scenario.CompileOpts{})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		cells[i] = l.Scenario(c.Arch, c.Kind, c.Protection)
	}
	return cells, nil
}

// reportE9 runs the Pineapple scenario on both architectures.
func (l *Lab) reportE9() (string, error) {
	var sb strings.Builder
	sb.WriteString(header("E9 §III-D: Wi-Fi Pineapple man-in-the-middle delivery (Fig. 1)"))
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		rep, err := l.Engine().RunPineapple(
			l.Scenario(arch, exploit.KindRopMemcpy, campaign.LevelWXASLR), 50, 90, 2)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "  %-5s baseline=%v reassociated=%v victim-dns=%s hijacked=%d -> %s (%s)\n",
			arch, rep.BaselineWorked, rep.Reassociated, rep.VictimDNS, rep.Hijacked,
			rep.Outcome, rep.Detail)
	}
	return sb.String(), nil
}

// reportE9Scale runs the population-scale Pineapple scenario: one
// shared world serving the whole station fleet. Wall-clock and
// datagrams/sec are host-dependent; every other column is
// deterministic.
func (l *Lab) reportE9Scale() (string, error) {
	var sb strings.Builder
	sb.WriteString(header("E9-scale: population-scale Pineapple — one shared world"))
	fmt.Fprintf(&sb, "  %-9s %-8s %-9s %-9s %-8s %-11s %-9s\n",
		"stations", "victims", "hijacked", "shells", "epochs", "delivered", "dgrams/s")
	for _, stations := range []int{1000, 10000, 100000} {
		rep, err := l.Engine().RunPineappleScale(campaign.ScaleConfig{
			Stations: stations, Lookups: 2, VictimEvery: stations / 4,
			Scenario: l.Scenario(isa.ArchX86S, exploit.KindCodeInjection, campaign.LevelNone),
		})
		if err != nil {
			return "", err
		}
		perSec := float64(rep.Delivered) / (float64(rep.WallNs) / 1e9)
		fmt.Fprintf(&sb, "  %-9d %-8d %-9d %-9d %-8d %-11d %-9.0f\n",
			rep.Stations, rep.Victims, rep.Hijacked, rep.Shells,
			rep.Epochs, rep.Delivered, perSec)
	}
	return sb.String(), nil
}

// reportE10 renders the mitigation table.
func (l *Lab) reportE10() (string, error) {
	var sb strings.Builder
	sb.WriteString(header("E10 §IV: mitigations vs the working exploits"))
	results, err := l.EvaluateMitigations(5)
	if err != nil {
		return "", err
	}
	sort.SliceStable(results, func(i, j int) bool {
		return results[i].Mitigation < results[j].Mitigation
	})
	for _, m := range results {
		fmt.Fprintf(&sb, "  %s\n", m.String())
	}
	sb.WriteString("  note: layout diversity cannot block code-injection or ret2libc —\n")
	sb.WriteString("  those never use the diversified binary's addresses.\n")
	return sb.String(), nil
}

// reportE11 covers both §V adaptations.
func (l *Lab) reportE11() (string, error) {
	var sb strings.Builder
	sb.WriteString(header("E11 §V: adapting the engine to other vulnerabilities"))

	dns := *l
	dns.Build.Variant = victim.VariantDnsmasq
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		for _, p := range campaign.PaperLevels() {
			ex, res, err := dns.AutoExploit(arch, p)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "  dnsmasq-analog %-5s %-12s %-15s -> %s\n",
				arch, p, ex.Kind, res.Outcome)
		}
	}

	httpTgt, err := exploit.ReconHTTP(kernel.Config{Seed: l.ReconSeed})
	if err != nil {
		return "", err
	}
	req, err := exploit.BuildHTTPInjection(httpTgt)
	if err != nil {
		return "", err
	}
	d, err := victim.NewHTTPDaemon(kernel.Config{Seed: l.TargetSeed})
	if err != nil {
		return "", err
	}
	res, err := d.HandleRequest(req)
	if err != nil {
		return "", err
	}
	outcome, detail := campaign.Classify(res)
	fmt.Fprintf(&sb, "  http-victim    x86s  none         code-injection  -> %s (%s)\n", outcome, detail)
	return sb.String(), nil
}

// reportX1 is the extension brute-force experiment: stale-address
// exploits vs. respawning daemons at several ASLR entropies.
func (l *Lab) reportX1() (string, error) {
	var sb strings.Builder
	sb.WriteString(header("X1 extension: ASLR brute force vs entropy (related work §VI)"))
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		for _, entropy := range []int{8, 64} {
			rep, err := l.BruteForceASLR(arch, entropy, 4*entropy)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "  %s\n", rep)
		}
	}
	rep, err := l.BruteForceASLR(isa.ArchX86S, 4096, 20)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "  %s  (full entropy: impractical)\n", rep)
	return sb.String(), nil
}

// reportX2 is the extension pointer-loop DoS: a tiny self-referential
// compression pointer hangs the unguarded decompressor.
func (l *Lab) reportX2() (string, error) {
	var sb strings.Builder
	sb.WriteString(header("X2 extension: compression-pointer loop DoS (decompressor hang)"))
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		ex := exploit.BuildPointerLoopDoS(arch)
		pkt, err := campaign.AttackResponse(ex)
		if err != nil {
			return "", err
		}
		opts := l.Build
		d, err := victim.NewDaemon(arch, opts, kernel.Config{Seed: l.TargetSeed, InstrBudget: 200_000})
		if err != nil {
			return "", err
		}
		res, err := d.HandleResponse(pkt)
		if err != nil {
			return "", err
		}
		outcome, _ := campaign.Classify(res)
		fmt.Fprintf(&sb, "  %-5s %d-byte packet -> %s (%s) after %d instructions\n",
			arch, len(pkt), outcome, res.Status, res.Instructions)
	}
	return sb.String(), nil
}

// reportX3 is the extension fleet sweep: one rogue AP, one payload, many
// devices — the Mirai-style recreation §III-D gestures at.
func (l *Lab) reportX3() (string, error) {
	var sb strings.Builder
	sb.WriteString(header("X3 extension: fleet sweep — one payload vs many devices (§III-D remark)"))
	s := l.Scenario(isa.ArchARMS, exploit.KindRopMemcpy, campaign.LevelWXASLR)
	s.Devices, s.PatchedEvery, s.Pineapple = 10, 3, true
	rep, err := l.Engine().Run([]campaign.Scenario{s})
	if err != nil {
		return "", err
	}
	sr := &rep.Scenarios[0]
	fmt.Fprintf(&sb, "  fleet: %d devices -> %d owned, %d crashed, %d survived (%d lookups hijacked)\n",
		len(sr.Devices), sr.Owned, sr.Crashed, sr.Survived, sr.Hijacked)
	for _, d := range sr.Devices {
		fw := "1.34"
		if d.Patched {
			fw = "1.35"
		}
		fmt.Fprintf(&sb, "  %-8s firmware %s -> %s\n", d.Name, fw, d.Outcome)
	}
	return sb.String(), nil
}

// reportE12 exercises the auto generator across every posture.
func (l *Lab) reportE12() (string, error) {
	var sb strings.Builder
	sb.WriteString(header("E12 §VII: automated exploit generation across postures"))
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		for _, p := range campaign.PaperLevels() {
			ex, res, err := l.AutoExploit(arch, p)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "  %-5s %-12s chose %-15s (%4d bytes) -> %s\n",
				arch, p, ex.Kind, len(ex.Stream), res.Outcome)
		}
	}
	return sb.String(), nil
}
