// Command connbench is connlab's end-to-end benchmark. It drives one of
// four campaign workloads through the lab's public entry points
// (campaign.New(...).Run / Recon / Payload / RunOne / RunPineappleScale)
// in a closed loop for a fixed time, checks every verdict against the
// reference recorded in ref/, and prints its metrics as one JSON object
// on the last line of standard output.
//
//	go run . --workload matrix-fleet --seed 1 --seconds 10 --trace 0
//
// With --trace 0 telemetry stays off and the end-to-end metrics are
// reported. With --trace 1 the run is split into an untraced and a
// traced half on the same seed, and the per-layer metrics are reported.
// --record <file> runs every pool entry of the workload once and writes
// its reference instead. NOTES.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"connlab/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// tracedCycles is the number of complete pool cycles in the traced
	// half (--trace 1 only); below 1 the exact counts cover a partial
	// cycle and depend on host speed.
	tracedCycles int
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	gcEachOp bool // see runner.gcEachOp
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("connbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "matrix-fleet", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: picks the pool entries the run visits")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured time of the run")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from an untraced and a traced half")
	record := fs.String("record", "", "write the workload's reference to `file` instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	if cfg.seconds <= 0 && *record == "" {
		fmt.Fprintf(stderr, "connbench: --seconds must be positive, got %g\n", cfg.seconds)
		return 2
	}
	w, err := newWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "connbench:", err)
		return 2
	}
	if *record != "" {
		if err := recordReference(w, cfg.workload, *record); err != nil {
			fmt.Fprintln(stderr, "connbench: record:", err)
			return 1
		}
		return 0
	}
	res, report, err := measure(w, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "connbench:", err)
		return 1
	}
	fmt.Fprint(stdout, report)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "connbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setupReps bounds the cold starts an end-to-end run measures: at least
// minSetups, more while they fit in setupBudget.
const (
	minSetups   = 5
	maxSetups   = 300
	setupBudget = 3 * time.Second
)

// measure runs one benchmark invocation and returns the result line and
// a human-readable report to print before it.
func measure(w workload, cfg config, diag io.Writer) (result, string, error) {
	ref, err := loadReference(cfg.workload, w.poolSize())
	if err != nil {
		return result{}, "", err
	}
	r := newRunner(w, ref, cfg.seed, diag)
	r.gcEachOp = cfg.gcEachOp
	d := time.Duration(cfg.seconds * float64(time.Second))
	var sb strings.Builder
	var metrics map[string]metric
	tracedCycles := 0

	if !cfg.trace {
		var setups []time.Duration
		var spent time.Duration
		for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
			s, err := r.setup()
			if err != nil {
				return result{}, "", err
			}
			setups = append(setups, s)
			spent += s
		}
		p := r.loop(d)
		metrics = endToEnd(setups, p)
		fmt.Fprintf(&sb, "%s seed=%d: %d set-ups, %d ops (%d complete cycles of %d), %d trials\n",
			cfg.workload, cfg.seed, len(setups), len(p.ops), len(p.ops)/p.pool, p.pool, p.trials)
	} else {
		if _, err := r.setup(); err != nil {
			return result{}, "", err
		}
		u := r.loop(d / 2)
		// Telemetry must be on before the engines are built: every op
		// builds its own, so enabling between the halves suffices.
		telemetry.Enable()
		t := r.loop(d / 2)
		snap := telemetry.TakeSnapshot()
		telemetry.Disable()
		for _, msg := range crossCheck(u, t, snap) {
			r.fail("%s", msg)
		}
		metrics = perLayer(u, t, snap)
		tracedCycles = len(t.ops) / t.pool
		fmt.Fprintf(&sb, "%s seed=%d: untraced %d ops, traced %d ops\nwhere the time goes (traced, share of worker time):\n",
			cfg.workload, cfg.seed, len(u.ops), len(t.ops))
		for _, row := range timeShares(t) {
			fmt.Fprintf(&sb, "  %-14s %s\n", row[0], row[1])
		}
	}
	fmt.Fprintf(&sb, "failed_frac=%g (%d of %d ops)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, name := range sortedKeys(metrics) {
		fmt.Fprintf(&sb, "  %-28s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	return result{
		Correct:      r.failed == 0,
		Attempted:    r.attempted,
		Failed:       r.failed,
		Metrics:      metrics,
		tracedCycles: tracedCycles,
	}, sb.String(), nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
