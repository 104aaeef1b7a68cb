// Package victim builds and runs the lab's vulnerable programs — most
// importantly connmansim, the Connman-analog DNS proxy whose
// parse_response → get_name path contains the unchecked copy of
// CVE-2017-12865 (paper Listing 1). The vulnerable code is compiled to
// emulator instructions, so a crafted DNS response genuinely smashes a
// simulated stack frame: denial of service and control-flow hijack emerge
// from machine behaviour, not from scripted outcomes.
//
// Two builds are provided per architecture: the vulnerable 1.34-style
// parser and the patched 1.35-style parser that bounds-checks each label
// before copying. A build can additionally carry stack canaries
// (-fstack-protector analog), which the paper's targets had disabled.
package victim

import (
	"fmt"

	"connlab/internal/dns"
	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/kernel"
)

// NameBufSize is the size of the stack name buffer in parse_rr, matching
// Connman's 1024-byte buffer.
const NameBufSize = 1024

// DnsmasqBufSize is the dnsmasq-analog variant's smaller name buffer.
const DnsmasqBufSize = 512

// Frame-layout facts of the generated victims, exported for tests and for
// cross-checking what the debugger discovers. Exploits built by the
// library discover these dynamically (internal/dbg); the constants are the
// ground truth they are validated against.
const (
	// X86RetOffset is the distance from the start of the name buffer to
	// the saved return address in the x86 parse_rr frame (no canary).
	X86RetOffset = NameBufSize + 4 // saved ebp, then eip

	// X86CanaryRetOffset is the same distance when built with canaries.
	X86CanaryRetOffset = NameBufSize + 8
	// X86CanaryOffset is the buffer offset of the canary slot.
	X86CanaryOffset = NameBufSize

	// ARMRetOffset is the distance from the start of the name buffer to
	// the saved lr in the arms parse_rr frame (no canary).
	ARMRetOffset = NameBufSize + 28
	// ARMNullOffset is the buffer offset of the cache-entry pointer that
	// parse_rr dereferences when non-NULL — the slot the paper found must
	// be zeroed for the ARM exploits to survive to the pop.
	ARMNullOffset = NameBufSize
	// ARMCanaryOffset is the buffer offset of the canary slot in canary
	// builds (the pad word next to the cache pointer).
	ARMCanaryOffset = NameBufSize + 4
)

// Variant selects which vulnerable application to build. The §V argument
// — that the same exploit engine retargets other DNS-based overflows with
// only address changes — is demonstrated by the dnsmasq-analog variant,
// which has a different buffer size and frame layout but the same bug
// class (CVE-2017-14493 is the real-world counterpart).
type Variant uint8

// Victim variants.
const (
	// VariantConnman is the Connman 1.34 analog (CVE-2017-12865).
	VariantConnman Variant = iota
	// VariantDnsmasq is a dnsmasq-flavoured analog (CVE-2017-14493
	// stand-in): a 512-byte name buffer and extra frame state, so every
	// discovered offset differs.
	VariantDnsmasq
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == VariantDnsmasq {
		return "dnsmasq"
	}
	return "connman"
}

// ParseVariant returns the variant a command-line or spec name denotes.
func ParseVariant(s string) (Variant, error) {
	for _, v := range []Variant{VariantConnman, VariantDnsmasq} {
		if s == v.String() {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q (want connman or dnsmasq)", s)
}

// Site selects where the vulnerable name buffer lives.
type Site uint8

// Buffer sites.
const (
	// SiteStack is the classic stack buffer of the paper's Listing 1.
	SiteStack Site = iota
	// SiteHeap places the buffer in a bump-allocated heap arena, with an
	// adjacent callback record the overflow clobbers (adjacent-allocation
	// overflow analog, CVE-2017-14491 style).
	SiteHeap
)

// String implements fmt.Stringer.
func (s Site) String() string {
	if s == SiteHeap {
		return "heap"
	}
	return "stack"
}

// FrameKind selects the parse path's frame discipline.
type FrameKind uint8

// Frame disciplines.
const (
	// FrameDefault is the register-save frame of the original builds.
	FrameDefault FrameKind = iota
	// FrameFP compiles the parse path with a frame-pointer-sensitive
	// caller (and, on arms, an fp-framed parse_rr whose saved frame
	// pointer adjoins the buffer): the single NUL byte an off-by-one
	// overflow plants in the saved frame pointer pivots the caller's
	// locals into the dead callee frame.
	FrameFP
)

// String implements fmt.Stringer.
func (f FrameKind) String() string {
	if f == FrameFP {
		return "fp"
	}
	return "default"
}

// RetOffsetFor returns the ground-truth buffer-to-hijack-slot distance
// for a build, for cross-checking what the debugger discovers. It is a
// thin wrapper over FrameModel.
func RetOffsetFor(arch isa.Arch, o BuildOpts) int {
	return FrameModel(arch, o).RetOffset
}

// NullOffsetsFor returns the ground-truth must-be-NULL buffer offsets,
// a thin wrapper over FrameModel.
func NullOffsetsFor(arch isa.Arch, o BuildOpts) []int {
	return FrameModel(arch, o).NullOffsets
}

// FrameInfo is the compiled ground truth of a build's corruption site —
// what the scenario compiler hands exploit builders in place of the old
// per-build offset constants.
type FrameInfo struct {
	// RetOffset is the buffer-to-hijack-slot distance: the saved return
	// address for default stack frames, the saved frame pointer for
	// FrameFP builds, or the adjacent allocation's callback slot for
	// SiteHeap builds.
	RetOffset int
	// NullOffsets are buffer offsets that must hold NULL words for the
	// victim to survive to the hijack point.
	NullOffsets []int
	// Reach is how many buffer-relative bytes a bounded copy can write
	// (the deepest reachable offset is Reach-1); 0 means unbounded.
	Reach int
}

// FrameModel computes the corruption geometry of a build. It is the
// single source of frame ground truth: the legacy constants, the scenario
// validator, and declared-discovery reconnaissance all read it.
func FrameModel(arch isa.Arch, o BuildOpts) FrameInfo {
	bs := int(o.BufSize())
	var fi FrameInfo
	if o.Bounded && !o.Patched {
		// The bound check admits name_len+label_len+2 <= BufSize+Slack,
		// so a completing copy's terminator lands at BufSize+Slack-1.
		fi.Reach = bs + int(o.Slack)
	}
	switch {
	case o.Site == SiteHeap:
		// The bump allocator 8-aligns requests, so the adjacent callback
		// record starts at the aligned buffer size.
		fi.RetOffset = (bs + 7) &^ 7
	case o.Frame == FrameFP:
		// The saved frame pointer adjoins the buffer on both ISAs.
		fi.RetOffset = bs
	case arch == isa.ArchARMS:
		frame := bs + 16
		fi.NullOffsets = []int{bs}
		if o.Variant == VariantDnsmasq {
			frame = bs + 24
			fi.NullOffsets = []int{bs, bs + 4}
		}
		fi.RetOffset = frame + 12 // saved r4,r5,r6,r7,r11 then lr
	default:
		fi.RetOffset = bs + 4 // saved ebp, then eip
		if o.Canary {
			fi.RetOffset += 4
		}
	}
	return fi
}

// BuildOpts selects the victim variant and its corruption geometry. The
// zero value (plus a Variant) reproduces the original builds byte for
// byte; the geometry fields are what scenario specs compile into. The
// struct stays comparable — campaign cache keys embed it.
type BuildOpts struct {
	// Variant picks the vulnerable application (Connman analog default).
	Variant Variant
	// Patched selects the bounds-checked parser (Connman 1.35 style).
	Patched bool
	// Canary adds stack-protector prologues/epilogues to parse_rr.
	Canary bool
	// Site picks where the name buffer lives (stack default).
	Site Site
	// Frame picks the frame discipline (register saves default).
	Frame FrameKind
	// Bounded emits the 1.35-style bound check even on unpatched builds,
	// widened by Slack bytes — Slack=1 is the off-by-one analog.
	Bounded bool
	// Slack is the extra reach the Bounded check forgives.
	Slack uint8
}

// Validate rejects geometry combinations the codegen fragments do not
// support. BuildProgram calls it; the scenario validator surfaces the
// same errors at spec-compile time.
func (o BuildOpts) Validate() error {
	if o.Site == SiteHeap && o.Frame != FrameDefault {
		return fmt.Errorf("victim: heap-site builds use the default frame")
	}
	if o.Site == SiteHeap && o.Canary {
		return fmt.Errorf("victim: heap-site builds have no stack canary to guard")
	}
	if o.Frame == FrameFP && o.Canary {
		return fmt.Errorf("victim: fp-framed builds place the saved frame pointer where the canary would sit")
	}
	if o.Bounded && o.Patched {
		return fmt.Errorf("victim: Bounded and Patched both select the bound check; use one")
	}
	if o.Slack > 0 && !o.Bounded {
		return fmt.Errorf("victim: Slack without Bounded has no effect")
	}
	return nil
}

// boundCheck reports whether get_name carries the 1.35-style bound check
// and the limit it compares against.
func (o BuildOpts) boundCheck() (bool, int32) {
	if o.Patched {
		return true, o.BufSize()
	}
	if o.Bounded {
		return true, o.BufSize() + int32(o.Slack)
	}
	return false, 0
}

// BufSize returns the variant's stack name-buffer size.
func (o BuildOpts) BufSize() int32 {
	if o.Variant == VariantDnsmasq {
		return DnsmasqBufSize
	}
	return NameBufSize
}

// Version returns the version string the build models.
func (o BuildOpts) Version() string {
	if o.Variant == VariantDnsmasq {
		return "dnsmasq 2.77 (analog)"
	}
	if o.Patched {
		return "1.35"
	}
	return "1.34"
}

// BuildProgram assembles the connmansim program unit for an architecture
// by composing the fragment set Fragments selects for opts.
func BuildProgram(arch isa.Arch, opts BuildOpts) (*image.Unit, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var u *image.Unit
	switch arch {
	case isa.ArchX86S:
		u = buildProgramX86(opts)
	case isa.ArchARMS:
		u = buildProgramARM(opts)
	default:
		return nil, fmt.Errorf("victim: unsupported arch %q", arch)
	}
	if err := u.Err(); err != nil {
		return nil, fmt.Errorf("build victim (%s): %w", arch, err)
	}
	addCommonData(u)
	return u, nil
}

// addCommonData installs the data every build carries: the .bss cache the
// ROP chains write into, and realistic string constants whose characters
// the x86 ASLR exploit harvests with memstr (they jointly cover
// "/bin/sh").
func addCommonData(u *image.Unit) {
	u.AddBSS("dns_cache", NameBufSize)
	u.AddBSS("query_table", 512)
	u.AddData("__stack_chk_guard", make([]byte, 4))
	// Order matters: the link layout must be identical across builds, or
	// an attacker's replica would not predict the target binary.
	for _, kv := range [][2]string{
		{"str_resolv", "/etc/resolv.conf"},
		{"str_dbus", "net.connman.dbus"},
		{"str_wifi", "wifi"},
		{"str_dnsproxy", "dnsproxy: malformed response"},
		{"str_dhcp", "dhcp offer received"},
		{"str_helper", "connman-dnshelper"},
		{"str_version", "connmansim 1.34 (lab build)"},
	} {
		u.AddRodata(kv[0], []byte(kv[1]+"\x00"))
	}
}

// Load builds and loads a victim process under a protection configuration.
func Load(arch isa.Arch, opts BuildOpts, cfg kernel.Config) (*kernel.Process, error) {
	prog, err := BuildProgram(arch, opts)
	if err != nil {
		return nil, err
	}
	libc, err := image.BuildLibc(arch)
	if err != nil {
		return nil, err
	}
	return kernel.Load(prog, libc, cfg)
}

// Daemon wraps a victim process as Connman's dnsproxy would run it: a
// long-lived root daemon that forwards client queries upstream and feeds
// every upstream response through the (emulated) parser to cache it. A
// parser crash kills the daemon (DoS); a hijack that reaches exec gives
// the attacker a root shell (RCE).
type Daemon struct {
	proc *kernel.Process
	cfg  kernel.Config

	crashed bool
	last    kernel.RunResult
	handled int
	// parseEntry caches the resolved parse_response entry point for the
	// current process image: PIE and diversity move it, so Recycle resets
	// it. Zero means not yet resolved.
	parseEntry uint32
}

// NewDaemon loads a fresh victim process and wraps it.
func NewDaemon(arch isa.Arch, opts BuildOpts, cfg kernel.Config) (*Daemon, error) {
	proc, err := Load(arch, opts, cfg)
	if err != nil {
		return nil, err
	}
	return &Daemon{proc: proc, cfg: cfg}, nil
}

// NewDaemonWith loads a daemon from prebuilt program and libc units —
// the fast path for fleets, where one build serves every device. Linking
// and loading only read the units, so the same units may be shared by
// any number of concurrent loads.
func NewDaemonWith(prog, libc *image.Unit, cfg kernel.Config) (*Daemon, error) {
	proc, err := kernel.Load(prog, libc, cfg)
	if err != nil {
		return nil, err
	}
	return &Daemon{proc: proc, cfg: cfg}, nil
}

// Process exposes the underlying process (for the debugger and tests).
func (d *Daemon) Process() *kernel.Process { return d.proc }

// Crashed reports whether the daemon has died.
func (d *Daemon) Crashed() bool { return d.crashed }

// LastResult returns the most recent parser run result.
func (d *Daemon) LastResult() kernel.RunResult { return d.last }

// Handled returns how many responses the daemon has processed.
func (d *Daemon) Handled() int { return d.handled }

// maxPacket bounds accepted datagrams, as the real proxy's receive buffer
// would.
const maxPacket = 4096

// HandleResponse performs Connman's cheap header pre-checks and, if they
// pass, runs the emulated parse_response over the packet. This mirrors the
// paper's observation that "the DNS responses must appear legitimate,
// otherwise Connman dumps the packet as a bad response and never enters
// the vulnerable portion of code."
func (d *Daemon) HandleResponse(pkt []byte) (kernel.RunResult, error) {
	if d.crashed {
		return kernel.RunResult{}, fmt.Errorf("victim daemon: already crashed: %v", d.last)
	}
	if len(pkt) > maxPacket {
		return kernel.RunResult{}, fmt.Errorf("victim daemon: packet too large (%d bytes)", len(pkt))
	}
	h, err := dns.ParseHeader(pkt)
	if err != nil {
		return kernel.RunResult{}, fmt.Errorf("victim daemon: %w", err)
	}
	if !h.Response || h.Opcode != dns.OpcodeQuery || h.QDCount != 1 || h.ANCount == 0 {
		return kernel.RunResult{}, fmt.Errorf("victim daemon: dropped bad response (qr=%v qd=%d an=%d)",
			h.Response, h.QDCount, h.ANCount)
	}

	// Stage the packet in the process heap and invoke the emulated parser.
	addr := d.proc.HeapBase()
	if f := d.proc.Mem().WriteBytes(addr, pkt); f != nil {
		return kernel.RunResult{}, fmt.Errorf("victim daemon: stage packet: %w", f)
	}
	if d.parseEntry == 0 {
		entry, ok := d.proc.Prog.Lookup("parse_response")
		if !ok {
			return kernel.RunResult{}, fmt.Errorf("call: undefined function %q", "parse_response")
		}
		d.parseEntry = entry
	}
	res, err := d.proc.CallAddr(d.parseEntry, addr, uint32(len(pkt)))
	if err != nil {
		return kernel.RunResult{}, err
	}
	d.last = res
	d.handled++
	if res.Status != kernel.StatusReturned {
		d.crashed = true
	}
	return res, nil
}

// Shells reports shells spawned inside the daemon process.
func (d *Daemon) Shells() []kernel.ShellSpawn { return d.proc.Shells() }

// Recycle rewinds the daemon to a freshly started state for cfg without
// rebuilding or reloading; it is RecycleWith on the daemon's own units.
func (d *Daemon) Recycle(cfg kernel.Config) bool {
	prog, libc := d.proc.Units()
	return d.RecycleWith(prog, libc, cfg)
}

// RecycleWith rewinds the daemon to a freshly started state for cfg,
// running the program linked from prog and libc, without reloading, via
// kernel.Process.RecycleWith: cfg may change the seed, layout and
// protections freely and the units may be another build of the same ISA,
// and the result is indistinguishable from NewDaemonWith(prog, libc,
// cfg). It reports false only when the process cannot be recycled (see
// kernel.Process.RecycleWith); callers then build a new daemon instead.
func (d *Daemon) RecycleWith(prog, libc *image.Unit, cfg kernel.Config) bool {
	if !d.proc.RecycleWith(prog, libc, cfg) {
		return false
	}
	d.cfg = cfg
	d.crashed = false
	d.last = kernel.RunResult{}
	d.handled = 0
	d.parseEntry = 0
	return true
}

// Restart brings a dead daemon back as an init system respawning it
// would: a fresh start under the same config, which — same seed — has
// the same layout and canary as before.
func (d *Daemon) Restart() error {
	if !d.Recycle(d.cfg) {
		return fmt.Errorf("victim daemon: restart: process cannot be recycled")
	}
	return nil
}
