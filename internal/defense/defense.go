// Package defense implements the mitigations §IV of the paper proposes to
// deploy against its own exploits, so the lab can measure them:
//
//   - a hardware-style control-flow-integrity shadow stack (the CFI CaRE
//     direction): every call pushes its return address to protected
//     storage, every return must match, and (optionally) every indirect
//     jump must target a known function entry;
//   - compile-time artificial software diversity: function-layout
//     shuffling and random inter-function padding (DiversityOptions),
//     making each build's gadget addresses unique.
//
// Stack canaries, the third classic mitigation, are a victim build option
// (internal/victim BuildOpts.Canary) plus kernel guard seeding.
package defense

import (
	"errors"
	"fmt"

	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/seedrand"
)

// ErrShadowMismatch is wrapped into every return-edge violation.
var ErrShadowMismatch = errors.New("return target does not match shadow stack")

// ErrBadJumpTarget is wrapped into every forward-edge violation.
var ErrBadJumpTarget = errors.New("indirect jump outside known function entries")

// ShadowStack is an isa.Hooks implementation enforcing backward-edge CFI,
// with optional forward-edge entry-point checking. Install it via
// kernel.Config.Hooks before loading; call Arm after loading to enable
// forward-edge checks against the loaded images.
type ShadowStack struct {
	stack []uint32
	// armed are the images whose function entries (FuncEntries) are the
	// valid indirect-jump targets. Unarmed (nil) means jumps are not
	// checked.
	armed []*image.Image
	// Violations counts vetoed transfers, for reporting.
	Violations int
}

var _ isa.Hooks = (*ShadowStack)(nil)

// NewShadowStack returns an empty shadow stack (backward-edge only until
// Arm is called).
func NewShadowStack() *ShadowStack { return &ShadowStack{} }

// ResetCall is invoked by the kernel when it sets up a fresh top-level
// call with the given sentinel return address.
func (s *ShadowStack) ResetCall(ret uint32) {
	s.stack = s.stack[:0]
	s.stack = append(s.stack, ret)
}

// Arm enables forward-edge checking: indirect jumps may only target
// function entry points of the loaded program and libc (PLT stubs
// included). This is the CFI CaRE-style policy for embedded binaries.
func (s *ShadowStack) Arm(proc *kernel.Process) {
	s.armed = append(s.armed[:0], proc.Prog, proc.Libc)
}

// entry reports whether to is a function entry of an armed image.
func (s *ShadowStack) entry(to uint32) bool {
	for _, img := range s.armed {
		if img.IsFuncEntry(to) {
			return true
		}
	}
	return false
}

// OnControl implements isa.Hooks.
func (s *ShadowStack) OnControl(kind isa.ControlKind, from, to, ret uint32) error {
	switch kind {
	case isa.ControlCall:
		s.stack = append(s.stack, ret)
		return nil
	case isa.ControlReturn:
		if len(s.stack) == 0 {
			s.Violations++
			return fmt.Errorf("cfi: return to %#08x from %#08x with empty shadow stack: %w",
				to, from, ErrShadowMismatch)
		}
		want := s.stack[len(s.stack)-1]
		if to != want {
			s.Violations++
			return fmt.Errorf("cfi: return to %#08x from %#08x, shadow stack holds %#08x: %w",
				to, from, want, ErrShadowMismatch)
		}
		s.stack = s.stack[:len(s.stack)-1]
		return nil
	case isa.ControlJump:
		if s.armed == nil {
			return nil
		}
		if !s.entry(to) {
			s.Violations++
			return fmt.Errorf("cfi: jump to %#08x from %#08x: %w", to, from, ErrBadJumpTarget)
		}
		return nil
	default:
		return nil
	}
}

// Depth returns the current shadow stack depth (for tests).
func (s *ShadowStack) Depth() int { return len(s.stack) }

// DiversityOptions derives image link options that shuffle function order
// and insert random padding — compile-time layout diversity. Two seeds
// give two binaries whose gadgets sit at different addresses, so an
// exploit harvested from one build misfires on another. The options are
// the ones rand.New(rand.NewSource(seed)) draws, drawn without seeding
// math/rand's register (see seedrand).
func DiversityOptions(u *image.Unit, seed int64) image.Options {
	src := seedrand.NewSource(seed)
	n := len(u.Funcs)
	order := src.Perm(n)
	pad := make([]int, n)
	for i := range pad {
		pad[i] = src.Intn(48)
	}
	return image.Options{Order: order, Pad: pad}
}
