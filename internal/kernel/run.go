package kernel

import (
	"fmt"

	"connlab/internal/abi"
	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
	"connlab/internal/telemetry"
)

// maxStrLen bounds strings read from emulated memory.
const maxStrLen = 4096

// Call invokes the named program function with the architecture's calling
// convention and runs it to a terminal event. Each Call starts from a
// fresh top-of-stack frame, modelling the daemon's per-packet handler
// invocation.
func (p *Process) Call(fn string, args ...uint32) (RunResult, error) {
	addr, ok := p.Prog.Lookup(fn)
	if !ok {
		return RunResult{}, fmt.Errorf("call: undefined function %q", fn)
	}
	return p.CallAddr(addr, args...)
}

// PrepareCall sets up the registers and initial stack frame for a call but
// does not run it — the debugger uses it to single-step from the entry.
func (p *Process) PrepareCall(fn string, args ...uint32) error {
	addr, ok := p.Prog.Lookup(fn)
	if !ok {
		return fmt.Errorf("prepare call: undefined function %q", fn)
	}
	return p.setupCall(addr, args)
}

// CallAddr is Call for a raw entry address.
func (p *Process) CallAddr(addr uint32, args ...uint32) (RunResult, error) {
	if err := p.setupCall(addr, args); err != nil {
		return RunResult{}, err
	}
	return p.Run(), nil
}

// CallResetter is implemented by hooks (e.g. the CFI shadow stack) that
// need to observe the start of each top-level call and its sentinel
// return address.
type CallResetter interface {
	ResetCall(ret uint32)
}

// setupCall prepares registers and the initial stack frame.
func (p *Process) setupCall(addr uint32, args []uint32) error {
	if r, ok := p.cfg.Hooks.(CallResetter); ok {
		r.ResetCall(Sentinel)
	}
	// Leave headroom between the frame and the top of the mapped stack,
	// standing in for the daemon main-loop frames and environment a real
	// process keeps there. Long ROP chains smash upward into this space.
	sp := p.StackTop - 256
	if p.arch == isa.ArchX86S {
		// cdecl: push args right-to-left, then the sentinel return address.
		for i := len(args) - 1; i >= 0; i-- {
			sp -= 4
			if f := p.m.WriteU32(sp, args[i]); f != nil {
				return fmt.Errorf("setup call: %w", f)
			}
		}
		sp -= 4
		if f := p.m.WriteU32(sp, Sentinel); f != nil {
			return fmt.Errorf("setup call: %w", f)
		}
		p.cpu.SetSP(sp)
		p.cpu.SetPC(addr)
		return nil
	}
	// arms AAPCS-ish: first four args in r0-r3, rest unsupported here.
	if len(args) > 4 {
		return fmt.Errorf("setup call: arms supports at most 4 register args, got %d", len(args))
	}
	for i, v := range args {
		p.cpu.SetReg(i, v)
	}
	p.cpu.SetReg(arms.LR, Sentinel)
	p.cpu.SetSP(sp)
	p.cpu.SetPC(addr)
	return nil
}

// Run executes until a terminal event: sentinel return, shell spawn, exit,
// fault, CFI kill, or budget exhaustion.
//
// The loop is the interpreter's outermost hot path: unlike StepHandled
// (kept for the debugger, which wants a RunResult per step), it constructs
// a RunResult only at terminal events instead of zeroing one per
// instruction.
func (p *Process) Run() RunResult {
	return p.runLoop()
}

// accountRun flushes one run's worth of telemetry: run/instruction/fault
// counters, the per-run instruction histogram, and the block-translation
// deltas accumulated inside the CPU since the previous flush.
func (p *Process) accountRun(res RunResult) {
	t := p.tel
	t.Inc(telemetry.CtrEmuRuns)
	t.Add(telemetry.CtrEmuInstr, res.Instructions)
	t.Observe(telemetry.HistEmuRunInstr, res.Instructions)
	// Per-run events are debug-level (filtered at the default threshold);
	// faults warrant a warn-level entry carrying the faulting PC. Both
	// carry the attempt ID so the obs stream correlates kernel evidence
	// with the campaign trial that produced it.
	telemetry.LogEvent(telemetry.EvDebug, "kernel", "run", string(p.arch),
		p.attempt, res.Instructions, uint64(res.Status))
	if res.Status == StatusFault || res.Status == StatusCFI {
		t.Inc(telemetry.CtrEmuFaults)
		telemetry.LogEvent(telemetry.EvWarn, "kernel", "run fault", string(p.arch),
			p.attempt, uint64(res.PC), res.Instructions)
	}
	if res.Hang != nil {
		telemetry.LogEvent(telemetry.EvWarn, "kernel", "run hang", string(p.arch),
			p.attempt, uint64(res.Hang.PC), res.Hang.Period)
	}
	trCtr, bhCtr, invCtr, biCtr := telemetry.CtrX86BlockTranslate, telemetry.CtrX86BlockHit,
		telemetry.CtrX86BlockInvalidate, telemetry.CtrX86BlockInstr
	decCtr, rebCtr := telemetry.CtrX86BlockDecode, telemetry.CtrX86BlockRebase
	if p.arch == isa.ArchARMS {
		trCtr, bhCtr, invCtr, biCtr = telemetry.CtrARMSBlockTranslate, telemetry.CtrARMSBlockHit,
			telemetry.CtrARMSBlockInvalidate, telemetry.CtrARMSBlockInstr
		decCtr, rebCtr = telemetry.CtrARMSBlockDecode, telemetry.CtrARMSBlockRebase
	}
	bs := p.cpu.BlockStats()
	t.Add(trCtr, bs.Translated-p.lastBlock.Translated)
	t.Add(decCtr, bs.Decoded-p.lastBlock.Decoded)
	t.Add(rebCtr, bs.Rebased-p.lastBlock.Rebased)
	t.Add(bhCtr, bs.Hits-p.lastBlock.Hits)
	t.Add(invCtr, bs.Invalidated-p.lastBlock.Invalidated)
	t.Add(biCtr, bs.Instrs-p.lastBlock.Instrs)
	t.Add(telemetry.CtrEmuHangProven, bs.Hangs-p.lastBlock.Hangs)
	t.Add(telemetry.CtrEmuInstrSkipped, bs.Skipped-p.lastBlock.Skipped)
	t.Add(telemetry.CtrEmuInstrBulk, bs.Bulk-p.lastBlock.Bulk)
	p.lastBlock = bs
}

// finish routes a terminal RunResult through the telemetry flush. It is
// small enough to inline at runLoop's (cold) terminal returns, so the
// disabled cost is one predicted-not-taken branch per run.
func (p *Process) finish(res RunResult) RunResult {
	if p.tel != nil {
		p.accountRun(res)
	}
	return res
}

// runLoop is the interpreter's outermost hot path, separated from Run so
// the telemetry flush stays out of the loop; accounting happens via the
// inlined finish at each terminal return, because a p.tel branch in Run
// makes Run non-inlinable and a defer here pins the result to the stack,
// both measurably slow even with telemetry disabled. Each iteration
// executes a chain of translated blocks (or one single-stepped
// instruction when the entry is not block-eligible) with the remaining
// budget as the per-dispatch cap, so a timeout — including a hang the
// CPU proved and fast-forwarded — lands on exactly the instruction count
// and state single-stepping would report. The sentinel check on retired
// events stays sound under chained blocks: the sentinel is never mapped,
// so a chain reaching it cannot translate further and returns a retired
// event whose PC is the sentinel — the PC single-step would have
// reported there.
func (p *Process) runLoop() RunResult {
	cpu := p.cpu
	start := cpu.InstrCount()
	if cpu.PC() == Sentinel {
		return p.finish(RunResult{Status: StatusReturned, RetVal: p.retVal(), PC: Sentinel})
	}
	single := p.cfg.SingleStep
	for {
		var ev isa.Event
		if single {
			ev = cpu.Step()
		} else {
			ev = cpu.StepBlock(p.budget - (cpu.InstrCount() - start))
		}
		if ev.Kind == isa.EventRetired {
			if ev.PC == Sentinel {
				return p.finish(RunResult{Status: StatusReturned, RetVal: p.retVal(), PC: Sentinel,
					Instructions: cpu.InstrCount() - start})
			}
		} else if res, done := p.terminal(ev); done {
			res.Instructions = cpu.InstrCount() - start
			return p.finish(res)
		}
		if cpu.InstrCount()-start >= p.budget {
			return p.finish(RunResult{
				Status: StatusTimeout, PC: cpu.PC(),
				Instructions: cpu.InstrCount() - start,
				Hang:         p.hangSince(start),
			})
		}
	}
}

// terminal maps the event that ended a step or a dispatch to the
// process's result, servicing a system call: done reports a terminal
// state, and is false when execution goes on. Run and StepHandled share
// it; Run checks a retired event for the sentinel inline first, since
// nearly every event it sees is one.
func (p *Process) terminal(ev isa.Event) (res RunResult, done bool) {
	switch ev.Kind {
	case isa.EventRetired:
		if ev.PC != Sentinel {
			return RunResult{}, false
		}
	case isa.EventSyscall:
		if res, done = p.syscall(); done || p.cpu.PC() != Sentinel {
			return res, done
		}
	case isa.EventFault:
		return RunResult{Status: StatusFault, Fault: ev.Fault, Illegal: ev.Illegal, PC: ev.PC}, true
	case isa.EventCFIViolation:
		return RunResult{Status: StatusCFI, PC: ev.PC, Reason: ev.Reason}, true
	default:
		return RunResult{Status: StatusFault, PC: ev.PC, Illegal: true}, true
	}
	return RunResult{Status: StatusReturned, RetVal: p.retVal(), PC: Sentinel}, true
}

// hangSince returns the CPU's last cycle proof, rebased to the call, if
// it was made during the run that started at instruction count start.
func (p *Process) hangSince(start uint64) *isa.Hang {
	h := p.cpu.LastHang()
	if h.Period == 0 || h.At < start {
		return nil
	}
	h.At -= start
	return &h
}

// StepHandled advances the process by one instruction, servicing syscalls
// transparently. It returns done=true with the terminal result when the
// process reached a terminal state. The debugger uses it to single-step
// with full kernel semantics.
func (p *Process) StepHandled() (RunResult, bool) {
	if p.cpu.PC() == Sentinel {
		return RunResult{Status: StatusReturned, RetVal: p.retVal(), PC: Sentinel}, true
	}
	return p.terminal(p.cpu.Step())
}

// retVal reads the ABI return-value register.
func (p *Process) retVal() uint32 {
	if p.arch == isa.ArchARMS {
		return p.cpu.Reg(arms.R0)
	}
	return p.cpu.Reg(x86s.EAX)
}

// syscallArgs reads the syscall number and arguments per the ABI.
func (p *Process) syscallArgs() (nr, a0, a1, a2 uint32) {
	if p.arch == isa.ArchARMS {
		return p.cpu.Reg(arms.R7), p.cpu.Reg(arms.R0), p.cpu.Reg(arms.R1), p.cpu.Reg(arms.R2)
	}
	return p.cpu.Reg(x86s.EAX), p.cpu.Reg(x86s.EBX), p.cpu.Reg(x86s.ECX), p.cpu.Reg(x86s.EDX)
}

// setSyscallResult writes the return value register.
func (p *Process) setSyscallResult(v uint32) {
	if p.arch == isa.ArchARMS {
		p.cpu.SetReg(arms.R0, v)
	} else {
		p.cpu.SetReg(x86s.EAX, v)
	}
}

// Errno values returned to emulated code.
const (
	errNOENT  = 2
	errFAULT  = 14
	errNOSYS  = 38
	negErrMax = ^uint32(0) // -1 base for -errno encoding
)

func negErrno(e uint32) uint32 { return negErrMax - e + 1 }

// syscall services the pending system call and reports whether it was
// terminal for the process.
func (p *Process) syscall() (RunResult, bool) {
	nr, a0, a1, a2 := p.syscallArgs()
	switch nr {
	case abi.SysExit:
		return RunResult{Status: StatusExited, ExitStatus: a0, PC: p.cpu.PC()}, true

	case abi.SysWrite:
		n := a2
		if n > 1<<16 {
			n = 1 << 16
		}
		b, f := p.m.ReadBytes(a1, n)
		if f != nil {
			p.setSyscallResult(negErrno(errFAULT))
			return RunResult{}, false
		}
		_ = a0 // single output stream
		p.stdout.Write(b)
		p.setSyscallResult(n)
		return RunResult{}, false

	case abi.SysExecve:
		return p.exec(a0, "execve", false)

	case abi.SysExeclp:
		return p.exec(a0, "execlp", true)

	case abi.SysAbort:
		return RunResult{Status: StatusAborted, PC: p.cpu.PC()}, true

	case abi.SysSystem:
		cmd, f := p.m.ReadCString(a0, maxStrLen)
		if f != nil {
			p.setSyscallResult(negErrno(errFAULT))
			return RunResult{}, false
		}
		// system(cmd) == execve("/bin/sh", ["sh", "-c", cmd], ...): it
		// always spawns the shell.
		spawn := ShellSpawn{Path: abi.ShellPath, Command: cmd, Via: "system", UID: 0}
		p.shells = append(p.shells, spawn)
		return RunResult{Status: StatusShell, Shell: &spawn, PC: p.cpu.PC()}, true

	default:
		p.setSyscallResult(negErrno(errNOSYS))
		return RunResult{}, false
	}
}

// exec resolves a program path and, when it names the shell, records the
// spawn. relative=true models execlp's PATH search, which lets the
// two-byte name "sh" reach /bin/sh — the property the paper's ARM ASLR
// exploit exploits after it can only copy two characters into .bss.
func (p *Process) exec(pathPtr uint32, via string, relative bool) (RunResult, bool) {
	path, f := p.m.ReadCString(pathPtr, maxStrLen)
	if f != nil {
		p.setSyscallResult(negErrno(errFAULT))
		return RunResult{}, false
	}
	resolved, ok := resolveExec(path, relative)
	if !ok {
		p.setSyscallResult(negErrno(errNOENT))
		return RunResult{}, false
	}
	spawn := ShellSpawn{Path: resolved, Via: via, UID: 0}
	p.shells = append(p.shells, spawn)
	return RunResult{Status: StatusShell, Shell: &spawn, PC: p.cpu.PC()}, true
}

// resolveExec is the lab's one-entry filesystem + PATH. Repeated slashes
// collapse, as in a real VFS — which is what lets NUL-free shellcode exec
// "/bin//sh".
func resolveExec(path string, relative bool) (string, bool) {
	clean := make([]byte, 0, len(path))
	for i := 0; i < len(path); i++ {
		if path[i] == '/' && len(clean) > 0 && clean[len(clean)-1] == '/' {
			continue
		}
		clean = append(clean, path[i])
	}
	path = string(clean)
	if path == abi.ShellPath {
		return abi.ShellPath, true
	}
	if relative && path == abi.RelShell {
		return abi.ShellPath, true
	}
	return "", false
}
