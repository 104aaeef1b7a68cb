package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func measureShort(t *testing.T, w workload, name string, trace bool, seconds float64) result {
	t.Helper()
	return measureConfig(t, w, config{workload: name, seed: 7, seconds: seconds, trace: trace})
}

func measureConfig(t *testing.T, w workload, cfg config) result {
	t.Helper()
	name, trace := cfg.workload, cfg.trace
	res, _, err := measure(w, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// TestMetricCatalogue checks that every workload BENCHMARK.json lists
// exists, then runs every connbench workload (attack-oneshot included,
// which BENCHMARK.json leaves out) briefly in both modes and checks that
// each prints exactly the metrics BENCHMARK.json declares, with the
// declared units, as finite numbers.
func TestMetricCatalogue(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		if _, err := newWorkload(wl.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			w, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			got := measureShort(t, w, name, trace, 0.5).Metrics
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(got), len(want))
			}
			for _, m := range want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case g.Unit != m.Unit:
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", name, m.Name, g.Unit, m.Unit)
				case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
					t.Errorf("%s: metric %s = %v", name, m.Name, g.Value)
				case !trace && g.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, g.Value)
				}
			}
		}
	}
}

// TestSecondsMustBePositive checks that a run with no measured time is
// refused before any op runs, and that an empty phase has no cycles.
func TestSecondsMustBePositive(t *testing.T) {
	for _, s := range []string{"0", "-1"} {
		var out strings.Builder
		if code := run([]string{"--workload", "attack-oneshot", "--seconds", s}, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("--seconds %s: exit %d, output %q; want exit 2 and no output", s, code, out.String())
		}
	}
	p := phase{pool: 4}
	if c := p.cycles(); len(c) != 0 {
		t.Errorf("empty phase: %d cycles, want 0", len(c))
	}
}

// TestAttribution inserts a synthetic delay inside the benchmark's own
// Recon span in attack-oneshot. The recon layer's metric and the
// request latency must move by about the delay; every other layer's
// timing must stay within the spread of repeated runs, and the exact
// counts must not move at all. Delayed and undelayed runs alternate, so
// host drift during the test lands on both sides.
//
// attack-oneshot allocates about 4 MiB per request and collects about
// once per request. A collection runs concurrently with whichever stages
// overlap it, so a delay in one stage moves GC assist time between the
// others, by up to a millisecond per request. That is the runtime, not
// the attribution under test, so these runs collect before every
// request instead. The other layers' tolerance still has floors of 40 %
// and, for stage times, 50 µs.
func TestAttribution(t *testing.T) {
	const delay = 1 * time.Millisecond
	const name = "attack-oneshot"
	run := func(d time.Duration, trace bool, seconds float64) result {
		return measureConfig(t, &attackOneshot{reconDelay: d},
			config{workload: name, seed: 7, seconds: seconds, trace: trace, gcEachOp: true})
	}
	// Each traced half must hold a complete cycle of 1 024 requests, or
	// the exact counts are taken over whatever ran.
	var base, slow, e2eBase, e2eSlow []result
	for i := 0; i < 2; i++ {
		base = append(base, run(0, true, 16))
		slow = append(slow, run(delay, true, 16))
		e2eBase = append(e2eBase, run(0, false, 2))
		e2eSlow = append(e2eSlow, run(delay, false, 2))
	}
	mean := func(rs []result, m string) float64 { return (rs[0].Metrics[m].Value + rs[1].Metrics[m].Value) / 2 }
	spread := func(rs []result, m string) float64 {
		return math.Abs(rs[0].Metrics[m].Value - rs[1].Metrics[m].Value)
	}

	moved := func(m string, before, after []result, unit float64) {
		t.Helper()
		d := (mean(after, m) - mean(before, m)) * unit
		if d < 0.5*float64(delay) || d > 2*float64(delay) {
			t.Errorf("%s moved by %v, want about %v", m, time.Duration(d), delay)
		}
	}
	moved("exploit.recon_us", base, slow, 1e3)
	moved("attack_p50_ms", e2eBase, e2eSlow, 1e6)

	for _, c := range []struct {
		m     string
		floor float64
	}{
		{"exploit.payload_us", 50}, {"victim.fresh_load_us", 50}, {"kernel.deliver_us", 50},
		{"campaign.verdict_us", 50}, {"kernel.ns_per_instr", 0},
	} {
		b, s := mean(base, c.m), mean(slow, c.m)
		tol := math.Max(math.Max(3*math.Max(spread(base, c.m), spread(slow, c.m)), 0.4*b), c.floor)
		if math.Abs(s-b) > tol {
			t.Errorf("%s moved with the recon delay: %.4g, undelayed %.4g", c.m, s, b)
		}
	}
	// The exact counts cover the first complete cycle of a traced half;
	// a host too slow to finish one leaves a prefix whose length varies.
	for _, r := range append(base, slow...) {
		if r.tracedCycles < 1 {
			t.Logf("a traced half ran no complete cycle of %d requests; exact counts not compared",
				(&attackOneshot{}).poolSize())
			return
		}
	}
	for _, m := range []string{"kernel.instr_per_trial", "campaign.recon_builds", "campaign.recon_hits"} {
		for _, r := range append(slow, base[1]) {
			if b, s := base[0].Metrics[m].Value, r.Metrics[m].Value; b != s {
				t.Errorf("exact count %s moved: %v -> %v", m, b, s)
			}
		}
	}
}
