package kernel

import (
	"fmt"
	"testing"

	"connlab/internal/mem"
)

// fmtFault is mem.Fault's error text as fmt rendered it.
func fmtFault(f *mem.Fault) string {
	if f == nil {
		return "<nil>"
	}
	if f.Segment != "" {
		return fmt.Sprintf("memory fault: %s %s at %#08x (segment %s)", f.Kind, f.Access, f.Addr, f.Segment)
	}
	return fmt.Sprintf("memory fault: %s %s at %#08x", f.Kind, f.Access, f.Addr)
}

// fmtRunResult is RunResult.String as fmt rendered it.
func fmtRunResult(r RunResult) string {
	switch r.Status {
	case StatusShell:
		return fmt.Sprintf("shell via %s (uid %d)", r.Shell.Via, r.Shell.UID)
	case StatusFault:
		if r.Illegal {
			return fmt.Sprintf("fault: illegal instruction at %#08x", r.PC)
		}
		return "fault: " + fmtFault(r.Fault)
	case StatusCFI:
		return "cfi violation: " + r.Reason
	case StatusReturned:
		return fmt.Sprintf("returned %#x", r.RetVal)
	case StatusExited:
		return fmt.Sprintf("exited %d", r.ExitStatus)
	case StatusAborted:
		return "stack smashing detected"
	case StatusTimeout:
		return "instruction budget exhausted"
	default:
		return "unknown"
	}
}

// TestRunResultStringMatchesFmt pins the fmt-free rendering of run
// results (every verdict's detail, and so every canonical report) to
// the fmt one, for every status, fault kind and access kind.
func TestRunResultStringMatchesFmt(t *testing.T) {
	words := []uint32{0, 1, 0x1234, 0x0804_8000, 0x7EFF_7FFC, 0xDEAD_0000, 0xFFFF_FFFF}
	var cases []RunResult
	for st := Status(0); st <= StatusTimeout+1; st++ {
		if st == StatusShell { // a shell result always carries its spawn
			continue
		}
		for _, w := range words {
			cases = append(cases,
				RunResult{Status: st, RetVal: w, ExitStatus: w, PC: w, Reason: "return mismatch"},
				RunResult{Status: st, Illegal: true, PC: w})
		}
	}
	for _, sh := range []ShellSpawn{{Via: "execve"}, {Via: "system", UID: 1000}, {Via: "execlp", UID: -1}} {
		cases = append(cases, RunResult{Status: StatusShell, Shell: &sh})
	}
	cases = append(cases, RunResult{Status: StatusFault})
	for k := mem.FaultKind(0); k <= mem.FaultProtection+1; k++ {
		for a := mem.Access(0); a <= mem.AccessExec+1; a++ {
			for _, seg := range []string{"", "stack", "libc.text"} {
				for _, w := range words {
					cases = append(cases, RunResult{Status: StatusFault,
						Fault: &mem.Fault{Kind: k, Access: a, Addr: w, Segment: seg}})
				}
			}
		}
	}
	for _, r := range cases {
		if got, want := r.String(), fmtRunResult(r); got != want {
			t.Errorf("%+v: String() = %q, fmt renders %q", r, got, want)
		}
		if r.Fault != nil {
			if got, want := r.Fault.Error(), fmtFault(r.Fault); got != want {
				t.Errorf("%+v: Error() = %q, fmt renders %q", *r.Fault, got, want)
			}
		}
	}
}
