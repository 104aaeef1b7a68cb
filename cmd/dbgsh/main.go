// Command dbgsh is an interactive gdb-style shell over the emulated
// victim: it stages a DNS response (benign or the DoS payload), parks the
// CPU at parse_response, and accepts debugger commands.
//
// Usage:
//
//	dbgsh -arch arms -crash
//
// Commands:
//
//	b <symbol|hexaddr>   set a breakpoint
//	c                    continue to breakpoint or terminal event
//	s [n]                single-step n instructions (default 1)
//	regs                 dump registers
//	x <hexaddr> [n]      hex-dump n bytes (default 64)
//	dis [hexaddr] [n]    disassemble n instructions (default 8, at pc)
//	where                show pc and containing function
//	q                    quit
//
// A non-interactive subcommand inspects telemetry snapshots written by
// the other tools' -metrics flag, or tails a live -listen/labd
// observability server, printing counter deltas between polls:
//
//	dbgsh telemetry metrics.json
//	dbgsh telemetry -watch 127.0.0.1:8089 [-interval 1s] [-n 10]
//
// A second subcommand inspects declarative scenario programs — listing
// the embedded specs, validating a spec file, and dumping the compiled
// build options, corruption geometry and protection matrix:
//
//	dbgsh scenario list
//	dbgsh scenario validate my-cve.scn
//	dbgsh scenario dump heap-adjacent
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"connlab/cmd/internal/cli"
	"connlab/internal/dbg"
	"connlab/internal/dns"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

func main() {
	cli.Main("dbgsh", func(args []string, stdout io.Writer) error { return run(args, os.Stdin, stdout) })
}

// run dispatches the telemetry and scenario subcommands, and otherwise
// runs the debugger over the commands read from stdin.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "telemetry":
			return telemetryCmd(args[1:], stdout)
		case "scenario":
			return scenarioCmd(args[1:], stdout)
		}
	}
	return debug(args, stdin, stdout)
}

// telemetryCmd renders a -metrics snapshot file for terminal
// inspection, or (with -watch) tails a live observability server.
func telemetryCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dbgsh telemetry", flag.ContinueOnError)
	fs.SetOutput(stdout)
	watch := fs.String("watch", "", "poll a live -listen/labd server at `addr` instead of reading a file")
	interval := fs.Duration("interval", time.Second, "poll period with -watch")
	polls := fs.Int("n", 0, "stop after `count` polls with -watch (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *watch != "" {
		return watchTelemetry(*watch, *interval, *polls, stdout)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dbgsh telemetry <snapshot.json> | dbgsh telemetry -watch <addr>")
	}
	b, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return fmt.Errorf("parse %s: %w", fs.Arg(0), err)
	}
	fmt.Fprint(stdout, telemetry.FormatSnapshot(snap))
	return nil
}

// fetchSnapshot pulls one /snapshot document from a live server.
func fetchSnapshot(url string) (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	resp, err := http.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("parse %s: %w", url, err)
	}
	return snap, nil
}

// watchTelemetry polls a live observability server and prints the
// counters that moved between consecutive polls — a `watch`-style ops
// view of a running campaign.
func watchTelemetry(addr string, interval time.Duration, polls int, stdout io.Writer) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	var prev telemetry.Snapshot
	for i := 0; polls == 0 || i < polls; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		snap, err := fetchSnapshot(base + "/snapshot")
		if err != nil {
			return err
		}
		if i == 0 {
			tool := "?"
			if snap.Run != nil {
				tool = snap.Run.Tool
			}
			fmt.Fprintf(stdout, "watching %s (tool %s, schema v%d): %d counters, %d spans, %d events\n",
				addr, tool, snap.SchemaVersion, len(snap.Counters), snap.SpanCount, snap.EventCount)
			prev = snap
			continue
		}
		names := make([]string, 0, len(snap.Counters))
		for name, v := range snap.Counters {
			if v != prev.Counters[name] {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		fmt.Fprintf(stdout, "[%d] spans +%d events +%d\n",
			i, snap.SpanCount-prev.SpanCount, snap.EventCount-prev.EventCount)
		for _, name := range names {
			fmt.Fprintf(stdout, "  %-28s +%-10d (%d)\n",
				name, snap.Counters[name]-prev.Counters[name], snap.Counters[name])
		}
		prev = snap
	}
	return nil
}

// debug stages a DNS response for the victim, parks the CPU at
// parse_response and runs the command loop.
func debug(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("dbgsh", flag.ContinueOnError)
	fs.SetOutput(stdout)
	archFlag := fs.String("arch", "x86s", "architecture: x86s or arms")
	crash := fs.Bool("crash", false, "stage the malicious oversized response")
	wx := fs.Bool("wx", false, "enable W⊕X")
	if err := fs.Parse(args); err != nil {
		return err
	}

	arch, err := isa.ParseArch(*archFlag)
	if err != nil {
		return err
	}
	proc, err := victim.Load(arch, victim.BuildOpts{}, kernel.Config{WX: *wx, Seed: 1})
	if err != nil {
		return err
	}

	q := dns.NewQuery(0x5151, "debug.example", dns.TypeA)
	var pkt []byte
	if *crash {
		pkt, err = exploit.BuildDoS(arch).Response(q)
	} else {
		resp := dns.NewResponse(q)
		resp.Answers = []dns.RR{dns.A("debug.example", 60, [4]byte{10, 0, 0, 1})}
		pkt, err = resp.Encode()
	}
	if err != nil {
		return err
	}
	addr := proc.HeapBase()
	if f := proc.Mem().WriteBytes(addr, pkt); f != nil {
		return fmt.Errorf("stage packet: %w", f)
	}
	if err := proc.PrepareCall("parse_response", addr, uint32(len(pkt))); err != nil {
		return err
	}

	d := dbg.New(proc)
	fmt.Fprintf(stdout, "dbgsh: %s victim, packet staged at %#x (%d bytes), pc at parse_response\n",
		arch, addr, len(pkt))
	return repl(d, proc, stdin, stdout)
}

// repl runs the command loop over stdin until quit or EOF.
func repl(d *dbg.Debugger, proc *kernel.Process, stdin io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(stdin)
	for {
		fmt.Fprint(w, "(dbg) ")
		if !sc.Scan() {
			fmt.Fprintln(w)
			return sc.Err()
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if done := command(d, proc, fields, w); done {
			return nil
		}
	}
}

// command executes one debugger command, writing to w; it reports true
// on quit.
func command(d *dbg.Debugger, proc *kernel.Process, fields []string, w io.Writer) bool {
	arg := func(i int, def uint64) uint64 {
		if i >= len(fields) {
			return def
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(fields[i], "0x"), 16, 64)
		if err != nil {
			fmt.Fprintln(w, "bad number:", fields[i])
			return def
		}
		return v
	}
	switch fields[0] {
	case "q", "quit":
		return true
	case "b", "break":
		if len(fields) < 2 {
			fmt.Fprintln(w, "usage: b <symbol|hexaddr>")
			return false
		}
		if err := d.BreakSym(fields[1]); err == nil {
			fmt.Fprintln(w, "breakpoint at", fields[1])
			return false
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 32)
		if err != nil {
			fmt.Fprintln(w, "no such symbol and not an address:", fields[1])
			return false
		}
		d.Break(uint32(v))
		fmt.Fprintf(w, "breakpoint at %#x\n", v)
	case "c", "continue":
		stop := d.Continue(kernel.DefaultInstrBudget)
		if stop.Breakpoint {
			fmt.Fprintf(w, "breakpoint hit at %s\n", d.FuncOf(stop.Addr))
		} else if stop.Result != nil {
			fmt.Fprintf(w, "terminal: %v\n", *stop.Result)
		}
	case "s", "step":
		n := int(arg(1, 1))
		for i := 0; i < n; i++ {
			if res := d.StepInstr(); res != nil {
				fmt.Fprintf(w, "terminal: %v\n", *res)
				return false
			}
		}
		lines, _ := d.Disasm(proc.CPU().PC(), 1)
		if len(lines) > 0 {
			fmt.Fprintln(w, lines[0])
		}
	case "regs":
		fmt.Fprint(w, d.Regs())
	case "x":
		if len(fields) < 2 {
			fmt.Fprintln(w, "usage: x <hexaddr> [n]")
			return false
		}
		a := uint32(arg(1, 0))
		n := uint32(arg(2, 0x40))
		b, err := d.ReadMem(a, n)
		if err != nil {
			fmt.Fprintln(w, "read:", err)
			return false
		}
		hexdump(w, a, b)
	case "dis":
		a := uint32(arg(1, uint64(proc.CPU().PC())))
		n := int(arg(2, 8))
		lines, err := d.Disasm(a, n)
		if err != nil {
			fmt.Fprintln(w, "disasm:", err)
			return false
		}
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	case "where":
		pc := proc.CPU().PC()
		fmt.Fprintf(w, "pc = %#08x (%s), sp = %#08x\n", pc, d.FuncOf(pc), proc.CPU().SP())
	default:
		fmt.Fprintln(w, "commands: b c s regs x dis where q")
	}
	return false
}

// hexdump writes a classic 16-byte-per-row dump to w.
func hexdump(w io.Writer, base uint32, b []byte) {
	for i := 0; i < len(b); i += 16 {
		end := i + 16
		if end > len(b) {
			end = len(b)
		}
		fmt.Fprintf(w, "%08x  ", base+uint32(i))
		for j := i; j < end; j++ {
			fmt.Fprintf(w, "%02x ", b[j])
		}
		for j := end; j < i+16; j++ {
			fmt.Fprint(w, "   ")
		}
		fmt.Fprint(w, " |")
		for j := i; j < end; j++ {
			c := b[j]
			if c < 0x20 || c > 0x7E {
				c = '.'
			}
			fmt.Fprintf(w, "%c", c)
		}
		fmt.Fprintln(w, "|")
	}
}
