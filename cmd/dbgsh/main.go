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
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"flag"

	"connlab/internal/dbg"
	"connlab/internal/dns"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "telemetry" {
		if err := telemetryCmd(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "dbgsh:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "scenario" {
		if err := scenarioCmd(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "dbgsh:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dbgsh:", err)
		os.Exit(1)
	}
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

func run() error {
	archFlag := flag.String("arch", "x86s", "architecture: x86s or arms")
	crash := flag.Bool("crash", false, "stage the malicious oversized response")
	wx := flag.Bool("wx", false, "enable W⊕X")
	flag.Parse()

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
	fmt.Printf("dbgsh: %s victim, packet staged at %#x (%d bytes), pc at parse_response\n",
		arch, addr, len(pkt))
	return repl(d, proc)
}

// repl runs the command loop until quit or EOF.
func repl(d *dbg.Debugger, proc *kernel.Process) error {
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("(dbg) ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if done := command(d, proc, fields); done {
			return nil
		}
	}
}

// command executes one debugger command; it reports true on quit.
func command(d *dbg.Debugger, proc *kernel.Process, fields []string) bool {
	arg := func(i int, def uint64) uint64 {
		if i >= len(fields) {
			return def
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(fields[i], "0x"), 16, 64)
		if err != nil {
			fmt.Println("bad number:", fields[i])
			return def
		}
		return v
	}
	switch fields[0] {
	case "q", "quit":
		return true
	case "b", "break":
		if len(fields) < 2 {
			fmt.Println("usage: b <symbol|hexaddr>")
			return false
		}
		if err := d.BreakSym(fields[1]); err == nil {
			fmt.Println("breakpoint at", fields[1])
			return false
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 32)
		if err != nil {
			fmt.Println("no such symbol and not an address:", fields[1])
			return false
		}
		d.Break(uint32(v))
		fmt.Printf("breakpoint at %#x\n", v)
	case "c", "continue":
		stop := d.Continue(kernel.DefaultInstrBudget)
		if stop.Breakpoint {
			fmt.Printf("breakpoint hit at %s\n", d.FuncOf(stop.Addr))
		} else if stop.Result != nil {
			fmt.Printf("terminal: %v\n", *stop.Result)
		}
	case "s", "step":
		n := int(arg(1, 1))
		for i := 0; i < n; i++ {
			if res := d.StepInstr(); res != nil {
				fmt.Printf("terminal: %v\n", *res)
				return false
			}
		}
		lines, _ := d.Disasm(proc.CPU().PC(), 1)
		if len(lines) > 0 {
			fmt.Println(lines[0])
		}
	case "regs":
		fmt.Print(d.Regs())
	case "x":
		if len(fields) < 2 {
			fmt.Println("usage: x <hexaddr> [n]")
			return false
		}
		a := uint32(arg(1, 0))
		n := uint32(arg(2, 0x40))
		b, err := d.ReadMem(a, n)
		if err != nil {
			fmt.Println("read:", err)
			return false
		}
		hexdump(a, b)
	case "dis":
		a := uint32(arg(1, uint64(proc.CPU().PC())))
		n := int(arg(2, 8))
		lines, err := d.Disasm(a, n)
		if err != nil {
			fmt.Println("disasm:", err)
			return false
		}
		for _, l := range lines {
			fmt.Println(l)
		}
	case "where":
		pc := proc.CPU().PC()
		fmt.Printf("pc = %#08x (%s), sp = %#08x\n", pc, d.FuncOf(pc), proc.CPU().SP())
	default:
		fmt.Println("commands: b c s regs x dis where q")
	}
	return false
}

// hexdump prints a classic 16-byte-per-row dump.
func hexdump(base uint32, b []byte) {
	for i := 0; i < len(b); i += 16 {
		end := i + 16
		if end > len(b) {
			end = len(b)
		}
		fmt.Printf("%08x  ", base+uint32(i))
		for j := i; j < end; j++ {
			fmt.Printf("%02x ", b[j])
		}
		for j := end; j < i+16; j++ {
			fmt.Print("   ")
		}
		fmt.Print(" |")
		for j := i; j < end; j++ {
			c := b[j]
			if c < 0x20 || c > 0x7E {
				c = '.'
			}
			fmt.Printf("%c", c)
		}
		fmt.Println("|")
	}
}
