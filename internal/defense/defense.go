// Package defense implements the mitigations §IV of the paper proposes to
// deploy against its own exploits, so the lab can measure them:
//
//   - a hardware-style control-flow-integrity shadow stack (the CFI CaRE
//     direction): every call pushes its return address to protected
//     storage, every return must match, and (optionally) every indirect
//     jump must target a known function entry;
//   - compile-time artificial software diversity: function-layout
//     shuffling and random inter-function padding (DiversityOptions),
//     making each build's gadget addresses unique, plus
//     equivalent-instruction substitution (EquivSubstitute), which the
//     campaign's diversity builds do not deploy.
//
// Stack canaries, the third classic mitigation, are a victim build option
// (internal/victim BuildOpts.Canary) plus kernel guard seeding.
package defense

import (
	"errors"
	"fmt"
	"math/rand"

	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
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

// EquivSubstitute rewrites function bytes in place with randomly chosen
// semantically equivalent encodings of the same length — the
// equivalent-instruction randomization of §IV. Relocation sites are left
// untouched. It returns how many instructions were rewritten.
func EquivSubstitute(u *image.Unit, seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, fn := range u.Funcs {
		relocAt := func(off, size int) bool {
			for _, r := range fn.Relocs {
				if off < r.Off+8 && r.Off < off+size {
					return true
				}
			}
			return false
		}
		var n int
		var err error
		if u.Arch == isa.ArchARMS {
			n, err = substituteARM(fn.Bytes, rng, relocAt)
		} else {
			n, err = substituteX86(fn.Bytes, rng, relocAt)
		}
		if err != nil {
			return total, fmt.Errorf("substitute %s: %w", fn.Name, err)
		}
		total += n
	}
	return total, nil
}

// substituteX86 walks the instruction stream applying same-length
// substitutions: mov r,r has dual encodings (0x89 vs 0x8B with swapped
// ModRM), and xor r,r ⇔ sub r,r both zero a register with identical flag
// results.
func substituteX86(code []byte, rng *rand.Rand, relocAt func(off, size int) bool) (int, error) {
	off, n := 0, 0
	for off < len(code) {
		in, err := x86s.Decode(code[off:])
		if err != nil {
			// Inter-gap filler or data; stop rewriting this function.
			return n, nil
		}
		size := int(in.Size)
		if relocAt(off, size) || rng.Intn(2) == 0 {
			off += size
			continue
		}
		switch {
		case in.Op == x86s.OpMovRR && size == 2:
			// 0x89 encodes mov dst,src as /r src,dst; 0x8B mirrors it.
			if code[off] == 0x89 {
				code[off] = 0x8B
				code[off+1] = 0xC0 | byte(in.R1&7)<<3 | byte(in.R2&7)
			} else {
				code[off] = 0x89
				code[off+1] = 0xC0 | byte(in.R2&7)<<3 | byte(in.R1&7)
			}
			n++
		case in.Op == x86s.OpAluRR && !in.MemOperand && in.R1 == in.R2 &&
			(in.Alu == x86s.AluXor || in.Alu == x86s.AluSub):
			if in.Alu == x86s.AluXor {
				code[off] = 0x29 // sub r, r
			} else {
				code[off] = 0x31 // xor r, r
			}
			n++
		}
		off += size
	}
	return n, nil
}

// substituteARM applies mov rd, rn ⇔ add rd, rn, #0 ⇔ orr rd, rn, rn for
// non-pc registers.
func substituteARM(code []byte, rng *rand.Rand, relocAt func(off, size int) bool) (int, error) {
	n := 0
	for off := 0; off+4 <= len(code); off += 4 {
		w := uint32(code[off]) | uint32(code[off+1])<<8 | uint32(code[off+2])<<16 | uint32(code[off+3])<<24
		in, err := arms.Decode(w)
		if err != nil {
			continue
		}
		if relocAt(off, 4) || rng.Intn(2) == 0 {
			continue
		}
		var out arms.Instr
		switch {
		case in.Op == arms.OpMovR && in.Rd != arms.PC && in.Rn != arms.PC:
			if rng.Intn(2) == 0 {
				out = arms.Instr{Op: arms.OpAddI, Rd: in.Rd, Rn: in.Rn, Imm: 0}
			} else {
				out = arms.Instr{Op: arms.OpOrrR, Rd: in.Rd, Rn: in.Rn, Rm: in.Rn}
			}
		case in.Op == arms.OpAddI && in.Imm == 0 && in.Rd != arms.PC && in.Rn != arms.PC:
			out = arms.Instr{Op: arms.OpMovR, Rd: in.Rd, Rn: in.Rn}
		case in.Op == arms.OpOrrR && in.Rn == in.Rm && in.Rd != arms.PC && in.Rn != arms.PC:
			out = arms.Instr{Op: arms.OpMovR, Rd: in.Rd, Rn: in.Rn}
		default:
			continue
		}
		ww := out.Word()
		code[off] = byte(ww)
		code[off+1] = byte(ww >> 8)
		code[off+2] = byte(ww >> 16)
		code[off+3] = byte(ww >> 24)
		n++
	}
	return n, nil
}
