package scenario

import (
	"fmt"

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/telemetry"
)

// CompileOpts overlays run-time choices on a spec: fleet shape, delivery
// mode, protection overlays beyond the spec's W⊕X/ASLR rows, and
// arch/kind filters. The zero value compiles the spec as written — the
// full matrix, one direct-delivery device per cell — which is exactly
// the paper-matrix configuration.
type CompileOpts struct {
	// Devices overrides the spec's fleet size per cell (0 keeps it).
	Devices int
	// PatchedEvery makes every Nth device run patched firmware.
	PatchedEvery int
	// Pineapple delivers through the rogue-AP world instead of directly.
	Pineapple bool
	// Patched deploys the patched firmware fleet-wide.
	Patched bool
	// Canary and CFI stack extra mitigations onto every row.
	Canary bool
	CFI    bool
	// DiversitySeed enables the §IV link-order diversity permutation.
	DiversitySeed int64
	// Arch restricts compilation to one architecture ("" = all in spec).
	Arch isa.Arch
	// Kind restricts compilation to one exploit kind ("" = all in spec).
	Kind exploit.Kind
}

// compileKey addresses one compilation in the cache: the spec's content
// hash (not its name — edited on-disk specs recompile) plus the overlay.
type compileKey struct {
	hash [32]byte
	opts CompileOpts
}

// compiles caches compiled scenario lists. Compilation is cheap, but
// caching it makes repeated compile calls (one per campaign run in a
// sweep, per REPL command, per test) observable as cache hits in
// telemetry rather than silent recomputation.
var compiles = campaign.NewCache[compileKey, []campaign.Scenario]().
	Instrument(telemetry.CtrScenarioCompile, telemetry.CtrScenarioCacheHit)

// Compile lowers a spec into the campaign scenario list: one cell per
// (arch, row, kind) in spec order — architectures outermost, then
// protection rows, then kinds — matching the lab's historical matrix
// enumeration so canonical reports are stable. Labels are left empty
// (the engine derives "arch/kind/protection").
func Compile(s *Spec, opts CompileOpts) ([]campaign.Scenario, error) {
	key := compileKey{hash: s.Hash(), opts: opts}
	cells, err := compiles.Get(key, func() ([]campaign.Scenario, error) {
		return compile(s, opts)
	})
	if err != nil {
		return nil, err
	}
	// The cache entry is shared; hand each caller its own slice so an
	// engine mutating Devices or Label cannot poison later compiles.
	out := make([]campaign.Scenario, len(cells))
	copy(out, cells)
	return out, nil
}

// compile is the uncached lowering.
func compile(s *Spec, opts CompileOpts) ([]campaign.Scenario, error) {
	build := s.BuildOpts()
	build.Patched = opts.Patched
	build.Canary = opts.Canary
	if err := build.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: overlay incompatible with geometry: %w", s.Name, err)
	}
	build.Canary = false // canary rides the protection overlay, not the base build
	arches, err := filterArches(s, opts.Arch)
	if err != nil {
		return nil, err
	}
	kinds, err := filterKinds(s, opts.Kind)
	if err != nil {
		return nil, err
	}
	devices := s.Devices
	if opts.Devices != 0 {
		devices = opts.Devices
	}
	var out []campaign.Scenario
	for _, arch := range arches {
		for _, row := range s.Rows {
			p, _ := RowProtection(row)
			p.Canary = p.Canary || opts.Canary
			p.CFI = p.CFI || opts.CFI
			p.DiversitySeed = opts.DiversitySeed
			for _, k := range kinds {
				out = append(out, campaign.Scenario{
					Arch: arch, Kind: k, Protection: p, Build: build,
					Devices: devices, PatchedEvery: opts.PatchedEvery,
					Pineapple: opts.Pineapple,
				})
			}
		}
	}
	return out, nil
}

// filterArches resolves the arch filter against the spec.
func filterArches(s *Spec, want isa.Arch) ([]isa.Arch, error) {
	if want == "" {
		return s.Arches, nil
	}
	for _, a := range s.Arches {
		if a == want {
			return []isa.Arch{a}, nil
		}
	}
	return nil, fmt.Errorf("scenario %s: arch %s not in spec (have %v)", s.Name, want, s.Arches)
}

// filterKinds resolves the kind filter against the spec.
func filterKinds(s *Spec, want exploit.Kind) ([]exploit.Kind, error) {
	kinds := make([]exploit.Kind, len(s.Kinds))
	for i, ks := range s.Kinds {
		kinds[i] = ks.Kind
	}
	if want == "" {
		return kinds, nil
	}
	for _, k := range kinds {
		if k == want {
			return []exploit.Kind{k}, nil
		}
	}
	return nil, fmt.Errorf("scenario %s: kind %s not in spec (have %v)", s.Name, want, kinds)
}

// Verify checks a campaign report against the spec's success
// predicates: every device of every scenario the spec covers must land
// on one of the declared outcomes. Patched devices are exempt (the
// predicates describe the vulnerable firmware; a patched device's whole
// point is landing elsewhere). Returns nil when the report conforms.
func Verify(s *Spec, rep *campaign.Report) error {
	var errs []string
	for si := range rep.Scenarios {
		sr := &rep.Scenarios[si]
		row, ok := RowFor(sr.Scenario.Protection)
		if !ok {
			errs = append(errs, fmt.Sprintf("%s: protection %s is not a spec row", sr.Label, sr.Scenario.Protection))
			continue
		}
		want, ok := s.Expected(sr.Scenario.Kind, sr.Scenario.Arch, row)
		if !ok {
			errs = append(errs, fmt.Sprintf("%s: no expectation in scenario %s", sr.Label, s.Name))
			continue
		}
		for di := range sr.Devices {
			d := &sr.Devices[di]
			if d.Patched {
				continue
			}
			if !outcomeIn(d.Outcome, want) {
				errs = append(errs, fmt.Sprintf("%s device %s: outcome %s, spec allows %v",
					sr.Label, d.Name, d.Outcome, want))
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("scenario %s: %d expectation failures:\n  %s",
			s.Name, len(errs), joinLines(errs))
	}
	return nil
}

// Run resolves a scenario — an embedded name like "connman" or
// "heap-adjacent", or a path to a .scn spec file — compiles it into
// campaign cells, runs them on eng, and checks the report against the
// spec's own success predicates. The report is returned even when the
// run or the verification fails, so callers can print what actually
// happened alongside the error; the spec is returned once resolved.
func Run(eng *campaign.Engine, nameOrPath string, opts CompileOpts) (*Spec, *campaign.Report, error) {
	spec, err := Resolve(nameOrPath)
	if err != nil {
		return nil, nil, err
	}
	cells, err := Compile(spec, opts)
	if err != nil {
		return spec, nil, err
	}
	rep, err := eng.Run(cells)
	if err != nil {
		return spec, rep, err
	}
	return spec, rep, Verify(spec, rep)
}

func outcomeIn(o campaign.Outcome, allowed []campaign.Outcome) bool {
	for _, a := range allowed {
		if o == a {
			return true
		}
	}
	return false
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
