// Package scenario is the lab's declarative scenario compiler: a
// vulnerability scenario — vulnerable function geometry, overflow site,
// buffer dimensions, protection matrix, and per-row success predicate —
// is written as a small machine-checkable spec and *compiled* into the
// victim build options, campaign scenario lists, and verification
// predicates the rest of the lab consumes. New CVE-analog scenarios are
// pure data: a .scn file, no Go.
//
// # Spec grammar
//
// A spec is strict line-based text: one directive per line, full-line
// `#` comments, blank lines ignored. Directives before the first `kind`
// describe the victim; each `kind` opens a block of expected-outcome
// predicates:
//
//	scenario <name>              required first directive; [a-z0-9-]+
//	title <free text>            optional
//	cve <free text>              optional provenance note
//	variant connman|dnsmasq      default connman
//	arch <a> [<a>...]            required; x86s and/or arms
//	buffer <n>                   required; must equal the variant's size
//	site stack|heap              default stack
//	frame default|fp             default default
//	bound unbounded|slack=<n>    default unbounded
//	discovery probe|declared     optional; must agree with bound
//	rows <r> [<r>...]            required; none, wx, wx+aslr
//	devices <n>                  optional fleet size
//	kind <k>                     opens a kind block
//	expect <arch|*> <row>=<outcome>[|<outcome>] ...
//
// Outcomes are lowercase verdict tokens (shell, crash, blocked,
// no-effect, no-payload, error); `|` lists acceptable alternatives for
// rows where the verdict is legitimately seed-dependent. The validator
// requires every (kind, arch, row) cell to have exactly one applicable
// predicate, so a compiled campaign is totally checkable.
package scenario

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"connlab/internal/campaign"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/victim"
)

// Row tokens of the protection matrix, in the paper's §III order.
const (
	RowNone   = "none"
	RowWX     = "wx"
	RowWXASLR = "wx+aslr"
)

// rowOrder is the canonical row ordering (and the valid-token set).
var rowOrder = []string{RowNone, RowWX, RowWXASLR}

// RowProtection maps a row token to its protection posture.
func RowProtection(row string) (campaign.Protection, bool) {
	switch row {
	case RowNone:
		return campaign.LevelNone, true
	case RowWX:
		return campaign.LevelWX, true
	case RowWXASLR:
		return campaign.LevelWXASLR, true
	}
	return campaign.Protection{}, false
}

// RowFor maps a base protection posture back to its row token. Overlay
// bits (CFI, canary, diversity, PIE) are ignored: the row names only the
// W⊕X/ASLR axis the paper's matrix varies.
func RowFor(p campaign.Protection) (string, bool) {
	base := campaign.Protection{WX: p.WX, ASLR: p.ASLR}
	switch base {
	case campaign.LevelNone:
		return RowNone, true
	case campaign.LevelWX:
		return RowWX, true
	case campaign.LevelWXASLR:
		return RowWXASLR, true
	}
	return "", false
}

// knownOutcomes is the lowercase verdict vocabulary of expect lines.
var knownOutcomes = map[string]bool{
	"shell": true, "crash": true, "blocked": true,
	"no-effect": true, "no-payload": true, "error": true,
}

// Discovery says how the attacker learns the frame geometry.
type Discovery string

// Discovery modes.
const (
	// DiscoveryProbe crash-probes a replica with cyclic patterns (the
	// paper's gdb sessions). Requires an unbounded copy.
	DiscoveryProbe Discovery = "probe"
	// DiscoveryDeclared takes the geometry from the compiled frame model:
	// a bounded copy cannot be probed past its own check.
	DiscoveryDeclared Discovery = "declared"
)

// Bound describes the copy's bound check.
type Bound struct {
	// Unbounded is the vulnerable 1.34-style copy.
	Unbounded bool
	// Slack is the widened-check reach in bytes when bounded (0 = the
	// exact 1.35 check, 1 = the off-by-one analog).
	Slack int
}

// String renders the bound directive's argument.
func (b Bound) String() string {
	if b.Unbounded {
		return "unbounded"
	}
	return fmt.Sprintf("slack=%d", b.Slack)
}

// RowExpect is one row's acceptable outcomes (alternation preserved in
// spec order).
type RowExpect struct {
	Row      string
	Outcomes []string
}

// ExpectLine is one expect directive: the arch it applies to ("*" for
// all) and its per-row predicates.
type ExpectLine struct {
	Arch string
	Rows []RowExpect
}

// KindSpec is one kind block: an exploit strategy plus its success
// predicates.
type KindSpec struct {
	Kind    exploit.Kind
	Expects []ExpectLine
}

// Spec is a parsed, validated scenario program.
type Spec struct {
	Name    string
	Title   string
	CVE     string
	Variant victim.Variant
	Arches  []isa.Arch
	Buffer  int
	Site    victim.Site
	Frame   victim.FrameKind
	Bound   Bound
	// Discovery is always resolved after parsing (derived from Bound when
	// the directive is omitted).
	Discovery Discovery
	Rows      []string
	Devices   int
	Kinds     []KindSpec
}

// BuildOpts compiles the spec's victim geometry.
func (s *Spec) BuildOpts() victim.BuildOpts {
	o := victim.BuildOpts{Variant: s.Variant, Site: s.Site, Frame: s.Frame}
	if !s.Bound.Unbounded {
		o.Bounded = true
		o.Slack = uint8(s.Bound.Slack)
	}
	return o
}

// Expected returns the acceptable outcomes for one (kind, arch, row)
// cell. An arch-specific expect line wins over a "*" line. The validator
// guarantees exactly one applies, so ok is false only for cells outside
// the spec (unknown kind, arch, or row).
func (s *Spec) Expected(kind exploit.Kind, arch isa.Arch, row string) ([]campaign.Outcome, bool) {
	for _, ks := range s.Kinds {
		if ks.Kind != kind {
			continue
		}
		var fallback []campaign.Outcome
		for _, el := range ks.Expects {
			for _, re := range el.Rows {
				if re.Row != row {
					continue
				}
				outs := make([]campaign.Outcome, len(re.Outcomes))
				for i, o := range re.Outcomes {
					outs[i] = campaign.Outcome(strings.ToUpper(o))
				}
				if el.Arch == string(arch) {
					return outs, true
				}
				if el.Arch == "*" {
					fallback = outs
				}
			}
		}
		if fallback != nil {
			return fallback, true
		}
	}
	return nil, false
}

// FrameInfo returns the compiled corruption geometry for one of the
// spec's architectures.
func (s *Spec) FrameInfo(arch isa.Arch) victim.FrameInfo {
	return victim.FrameModel(arch, s.BuildOpts())
}

// Hash is a content address of the spec (its canonical rendering), used
// by the compile cache.
func (s *Spec) Hash() [32]byte {
	return sha256.Sum256([]byte(s.String()))
}

// String renders the spec in canonical form: defaults made explicit,
// directives in grammar order. Parse(s.String()) reproduces s exactly.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\n", s.Name)
	if s.Title != "" {
		fmt.Fprintf(&b, "title %s\n", s.Title)
	}
	if s.CVE != "" {
		fmt.Fprintf(&b, "cve %s\n", s.CVE)
	}
	fmt.Fprintf(&b, "variant %s\n", s.Variant)
	arches := make([]string, len(s.Arches))
	for i, a := range s.Arches {
		arches[i] = string(a)
	}
	fmt.Fprintf(&b, "arch %s\n", strings.Join(arches, " "))
	fmt.Fprintf(&b, "buffer %d\n", s.Buffer)
	fmt.Fprintf(&b, "site %s\n", s.Site)
	fmt.Fprintf(&b, "frame %s\n", s.Frame)
	fmt.Fprintf(&b, "bound %s\n", s.Bound)
	fmt.Fprintf(&b, "discovery %s\n", s.Discovery)
	fmt.Fprintf(&b, "rows %s\n", strings.Join(s.Rows, " "))
	if s.Devices != 0 {
		fmt.Fprintf(&b, "devices %d\n", s.Devices)
	}
	for _, ks := range s.Kinds {
		fmt.Fprintf(&b, "kind %s\n", ks.Kind)
		for _, el := range ks.Expects {
			fmt.Fprintf(&b, "expect %s", el.Arch)
			for _, re := range el.Rows {
				fmt.Fprintf(&b, " %s=%s", re.Row, strings.Join(re.Outcomes, "|"))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// parseErr is a line-tagged parse error.
func parseErr(n int, format string, args ...any) error {
	return fmt.Errorf("scenario: line %d: %s", n, fmt.Sprintf(format, args...))
}

// Parse parses and validates a scenario spec. It never panics on any
// input; every malformed spec produces a line-tagged error.
func Parse(src []byte) (*Spec, error) {
	s := &Spec{Variant: victim.VariantConnman}
	seen := map[string]bool{}
	inKinds := false
	var cur *KindSpec

	sc := bufio.NewScanner(strings.NewReader(string(src)))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		dir, args := fields[0], fields[1:]
		if !seen["scenario"] && dir != "scenario" {
			return nil, parseErr(lineNo, "first directive must be scenario, got %q", dir)
		}
		if inKinds && dir != "kind" && dir != "expect" {
			return nil, parseErr(lineNo, "directive %q must precede the first kind block", dir)
		}
		if dir != "kind" && dir != "expect" {
			if seen[dir] {
				return nil, parseErr(lineNo, "duplicate directive %q", dir)
			}
			seen[dir] = true
		}
		switch dir {
		case "scenario":
			if len(args) != 1 || !nameRe.MatchString(args[0]) {
				return nil, parseErr(lineNo, "scenario wants one [a-z0-9-]+ name")
			}
			s.Name = args[0]
		case "title":
			if len(args) == 0 {
				return nil, parseErr(lineNo, "title wants text")
			}
			s.Title = strings.Join(args, " ")
		case "cve":
			if len(args) == 0 {
				return nil, parseErr(lineNo, "cve wants text")
			}
			s.CVE = strings.Join(args, " ")
		case "variant":
			if len(args) != 1 {
				return nil, parseErr(lineNo, "variant wants one of connman, dnsmasq")
			}
			v, err := victim.ParseVariant(args[0])
			if err != nil {
				return nil, parseErr(lineNo, "%v", err)
			}
			s.Variant = v
		case "arch":
			if len(args) == 0 {
				return nil, parseErr(lineNo, "arch wants at least one of x86s, arms")
			}
			for _, a := range args {
				arch, err := isa.ParseArch(a)
				if err != nil {
					return nil, parseErr(lineNo, "%v", err)
				}
				for _, have := range s.Arches {
					if have == arch {
						return nil, parseErr(lineNo, "duplicate arch %q", a)
					}
				}
				s.Arches = append(s.Arches, arch)
			}
		case "buffer":
			n, err := atoiArg(args)
			if err != nil {
				return nil, parseErr(lineNo, "buffer wants one integer: %v", err)
			}
			s.Buffer = n
		case "site":
			if len(args) != 1 {
				return nil, parseErr(lineNo, "site wants one of stack, heap")
			}
			switch args[0] {
			case "stack":
				s.Site = victim.SiteStack
			case "heap":
				s.Site = victim.SiteHeap
			default:
				return nil, parseErr(lineNo, "unknown site %q", args[0])
			}
		case "frame":
			if len(args) != 1 {
				return nil, parseErr(lineNo, "frame wants one of default, fp")
			}
			switch args[0] {
			case "default":
				s.Frame = victim.FrameDefault
			case "fp":
				s.Frame = victim.FrameFP
			default:
				return nil, parseErr(lineNo, "unknown frame %q", args[0])
			}
		case "bound":
			if len(args) != 1 {
				return nil, parseErr(lineNo, "bound wants unbounded or slack=<n>")
			}
			switch {
			case args[0] == "unbounded":
				s.Bound = Bound{Unbounded: true}
			case strings.HasPrefix(args[0], "slack="):
				n, err := strconv.Atoi(args[0][len("slack="):])
				if err != nil || n < 0 || n > 255 {
					return nil, parseErr(lineNo, "slack wants an integer in [0,255]")
				}
				s.Bound = Bound{Slack: n}
			default:
				return nil, parseErr(lineNo, "unknown bound %q", args[0])
			}
		case "discovery":
			if len(args) != 1 || (args[0] != string(DiscoveryProbe) && args[0] != string(DiscoveryDeclared)) {
				return nil, parseErr(lineNo, "discovery wants probe or declared")
			}
			s.Discovery = Discovery(args[0])
		case "rows":
			if len(args) == 0 {
				return nil, parseErr(lineNo, "rows wants at least one of none, wx, wx+aslr")
			}
			for _, r := range args {
				if _, ok := RowProtection(r); !ok {
					return nil, parseErr(lineNo, "unknown row %q", r)
				}
				for _, have := range s.Rows {
					if have == r {
						return nil, parseErr(lineNo, "duplicate row %q", r)
					}
				}
				s.Rows = append(s.Rows, r)
			}
		case "devices":
			n, err := atoiArg(args)
			if err != nil || n < 1 {
				return nil, parseErr(lineNo, "devices wants one positive integer")
			}
			s.Devices = n
		case "kind":
			if len(args) != 1 {
				return nil, parseErr(lineNo, "kind wants one of dos, code-injection, ret2libc, rop-execlp, rop-memcpy")
			}
			k, err := exploit.ParseKind(args[0])
			if err != nil {
				return nil, parseErr(lineNo, "%v", err)
			}
			for _, have := range s.Kinds {
				if have.Kind == k {
					return nil, parseErr(lineNo, "duplicate kind %q", k)
				}
			}
			inKinds = true
			s.Kinds = append(s.Kinds, KindSpec{Kind: k})
			cur = &s.Kinds[len(s.Kinds)-1]
		case "expect":
			if cur == nil {
				return nil, parseErr(lineNo, "expect outside a kind block")
			}
			el, err := parseExpect(lineNo, args)
			if err != nil {
				return nil, err
			}
			cur.Expects = append(cur.Expects, el)
		default:
			return nil, parseErr(lineNo, "unknown directive %q", dir)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// atoiArg parses a single-integer argument list.
func atoiArg(args []string) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("want exactly one argument")
	}
	return strconv.Atoi(args[0])
}

// parseExpect parses "expect <arch|*> row=outcome[|outcome] ...".
func parseExpect(lineNo int, args []string) (ExpectLine, error) {
	var el ExpectLine
	if len(args) < 2 {
		return el, parseErr(lineNo, "expect wants an arch (or *) and at least one row=outcome")
	}
	a := args[0]
	if _, err := isa.ParseArch(a); a != "*" && err != nil {
		return el, parseErr(lineNo, "expect arch must be x86s, arms, or *")
	}
	el.Arch = a
	for _, pair := range args[1:] {
		row, outs, ok := strings.Cut(pair, "=")
		if !ok {
			return el, parseErr(lineNo, "malformed expect pair %q", pair)
		}
		if _, okRow := RowProtection(row); !okRow {
			return el, parseErr(lineNo, "unknown row %q in expect", row)
		}
		for _, have := range el.Rows {
			if have.Row == row {
				return el, parseErr(lineNo, "duplicate row %q in expect", row)
			}
		}
		var outcomes []string
		for _, o := range strings.Split(outs, "|") {
			if !knownOutcomes[o] {
				return el, parseErr(lineNo, "unknown outcome %q (want shell, crash, blocked, no-effect, no-payload, error)", o)
			}
			outcomes = append(outcomes, o)
		}
		el.Rows = append(el.Rows, RowExpect{Row: row, Outcomes: outcomes})
	}
	return el, nil
}

// validate enforces the cross-field rules that make a spec compilable
// and totally checkable.
func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing scenario directive")
	}
	if len(s.Arches) == 0 {
		return fmt.Errorf("scenario %s: missing arch directive", s.Name)
	}
	if len(s.Rows) == 0 {
		return fmt.Errorf("scenario %s: missing rows directive", s.Name)
	}
	if len(s.Kinds) == 0 {
		return fmt.Errorf("scenario %s: no kind blocks", s.Name)
	}
	opts := s.BuildOpts()
	if err := opts.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.Buffer == 0 {
		return fmt.Errorf("scenario %s: missing buffer directive", s.Name)
	}
	if int32(s.Buffer) != opts.BufSize() {
		return fmt.Errorf("scenario %s: buffer %d does not match the %s variant's %d-byte buffer",
			s.Name, s.Buffer, s.Variant, opts.BufSize())
	}
	// Discovery: derive when omitted, cross-check when explicit. A
	// bounded copy cannot be crash-probed; an unbounded one has no model
	// to declare from.
	want := DiscoveryProbe
	if !s.Bound.Unbounded {
		want = DiscoveryDeclared
	}
	if s.Discovery == "" {
		s.Discovery = want
	} else if s.Discovery != want {
		return fmt.Errorf("scenario %s: discovery %s contradicts bound %s (want %s)",
			s.Name, s.Discovery, s.Bound, want)
	}
	// Every (kind, arch, row) cell needs exactly one applicable expect.
	for _, ks := range s.Kinds {
		seenCell := map[string]bool{}
		for _, el := range ks.Expects {
			for _, re := range el.Rows {
				inRows := false
				for _, r := range s.Rows {
					if r == re.Row {
						inRows = true
					}
				}
				if !inRows {
					return fmt.Errorf("scenario %s: kind %s expects row %q not in rows", s.Name, ks.Kind, re.Row)
				}
				cell := el.Arch + "/" + re.Row
				if seenCell[cell] {
					return fmt.Errorf("scenario %s: kind %s has duplicate expect for %s", s.Name, ks.Kind, cell)
				}
				seenCell[cell] = true
			}
			if el.Arch != "*" {
				found := false
				for _, a := range s.Arches {
					if string(a) == el.Arch {
						found = true
					}
				}
				if !found {
					return fmt.Errorf("scenario %s: kind %s expects arch %q not in arch directive", s.Name, ks.Kind, el.Arch)
				}
			}
		}
		for _, a := range s.Arches {
			for _, r := range s.Rows {
				if _, ok := s.Expected(ks.Kind, a, r); !ok {
					return fmt.Errorf("scenario %s: kind %s has no expectation for %s/%s", s.Name, ks.Kind, a, r)
				}
			}
		}
	}
	return nil
}
