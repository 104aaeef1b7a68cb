package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"connlab/internal/campaign"
	"connlab/internal/gadget"
	"connlab/internal/telemetry"
)

// runner drives one workload: it visits the pool entries in an order
// the run seed shuffles, cycling, and checks every op against the
// reference. A complete cycle is the same work whatever the seed, so
// metrics taken over complete cycles compare across seeds; pool entries
// differ a lot in cost (a diversity layout that spins to the instruction
// budget costs as much as the rest of its op).
type runner struct {
	w      workload
	ref    *reference
	order  []int
	next   int
	diag   io.Writer
	cursor uint64 // telemetry span cursor (traced phase)
	// gcEachOp collects garbage before every op, outside its timing, so
	// no collection overlaps an op (attribution self-test only).
	gcEachOp bool

	attempted, failed int
}

func newRunner(w workload, ref *reference, seed int64, diag io.Writer) *runner {
	order := rand.New(rand.NewSource(seed)).Perm(w.poolSize())
	return &runner{w: w, ref: ref, order: order, diag: diag}
}

// do runs the next op of the seed's order and checks it.
func (r *runner) do() opResult {
	j := r.order[r.next%len(r.order)]
	r.next++
	return r.run(j)
}

// run runs pool entry j and checks it.
func (r *runner) run(j int) opResult {
	if r.gcEachOp {
		runtime.GC()
	}
	return r.check(j, r.w.op(j))
}

// check adds the op's netsim spans to res and compares it with the
// reference entry j.
func (r *runner) check(j int, res opResult) opResult {
	if telemetry.Enabled() {
		var spans []telemetry.Span
		spans, r.cursor = telemetry.SpansSince(r.cursor)
		for _, s := range spans {
			if s.Track == telemetry.TrackNetsim {
				res.pumpNs += s.Dur
			}
		}
	}
	r.attempted++
	switch want := r.ref.Entries[j]; {
	case res.err != nil:
		r.fail("pool entry %d: %v", j, res.err)
	case res.ref != want:
		r.fail("pool entry %d: got %+v, reference %+v", j, res.ref, want)
	}
	return res
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(r.diag, "connbench: "+format+"\n", args...)
	}
}

// setup is one cold start: an empty gadget scan cache, the workload's
// spec load and compile, and a first op. The op is always pool entry 0,
// so set-up time does not depend on which entries the seed puts first.
// The heap is collected before the clock starts, so no collection left
// over from the previous start lands inside this one. scenario.Compile
// caches per process, so only the first start of a run compiles.
func (r *runner) setup() (time.Duration, error) {
	gadget.FlushScanCache()
	runtime.GC()
	t0 := time.Now()
	if err := r.w.prepare(); err != nil {
		return 0, err
	}
	res := r.w.op(0)
	d := time.Since(t0)
	r.check(0, res)
	return d, nil
}

// phase is one closed-loop timed stretch of ops, starting at the first
// entry of the seed's order.
type phase struct {
	ops       []opResult
	pool      int   // ops per cycle
	wallNs    int64 // Σ op wall time
	trials    int
	elapsedNs int64 // loop wall time, gaps between ops included
	allocB    uint64
	gcCycles  uint32
}

// loop runs ops back to back until d has elapsed. Every loop starts the
// seed's order afresh, so two loops of one run visit the same pool
// entries in the same order.
func (r *runner) loop(d time.Duration) phase {
	r.next = 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	p := phase{pool: len(r.order)}
	start := time.Now()
	for time.Since(start) < d {
		res := r.do()
		p.ops = append(p.ops, res)
		p.wallNs += res.wallNs
		p.trials += res.trials
	}
	p.elapsedNs = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&ms1)
	p.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCycles = ms1.NumGC - ms0.NumGC
	return p
}

func (p *phase) trialsPerSec() float64 { return ratio(float64(p.trials), float64(p.wallNs)/1e9) }

// complete returns the ops of the phase's complete passes over the pool;
// a phase too short for one complete pass is returned whole.
func (p *phase) complete() []opResult {
	if n := len(p.ops) / p.pool * p.pool; n > 0 {
		return p.ops[:n]
	}
	return p.ops
}

// cycles splits the complete passes into one slice per pass; a phase
// too short for one complete pass is one short slice, and a phase with
// no ops has none.
func (p *phase) cycles() [][]opResult {
	ops := p.complete()
	n := min(p.pool, len(ops))
	if n == 0 {
		return nil
	}
	var out [][]opResult
	for i := 0; i+n <= len(ops); i += n {
		out = append(out, ops[i:i+n])
	}
	return out
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the end-to-end metrics from the set-up times and the
// timed phase's complete cycles. The attack latency is one op's wall
// time: what a user waits for one campaign, request or rogue-AP world.
// Each metric is computed per cycle and the median over the cycles is
// reported, so a few seconds of host interference do not move it. A
// cycle's p50 is the median of its ops, which averages the two middle
// entries: a nearest-rank pick would jump between them when the pool's
// costs are bimodal (mitigation-sweep).
func endToEnd(setups []time.Duration, p phase) map[string]metric {
	var rates, p50s, p99s []float64
	for _, cyc := range p.cycles() {
		var lat []int64
		var wallNs int64
		trials := 0
		for i := range cyc {
			lat = append(lat, cyc[i].wallNs)
			wallNs += cyc[i].wallNs
			trials += cyc[i].trials
		}
		rates = append(rates, ratio(float64(trials), float64(wallNs)/1e9))
		sortInt64(lat)
		ms := make([]float64, len(lat))
		for i, ns := range lat {
			ms[i] = float64(ns) / 1e6
		}
		p50s = append(p50s, median(ms))
		p99s = append(p99s, float64(pct(lat, 0.99))/1e6)
	}
	s := make([]float64, len(setups))
	for i, d := range setups {
		s[i] = d.Seconds()
	}
	return map[string]metric{
		"trials_per_s":  {median(rates), "trials/s"},
		"attack_p50_ms": {median(p50s), "ms"},
		"attack_p99_ms": {median(p99s), "ms"},
		"setup_s":       {median(s), "s"},
	}
}

// median returns the median of v (0 when empty), reordering v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

// perLayer derives the per-layer metrics from an untraced phase u and a
// traced phase t run on the same seed, plus the telemetry snapshot taken
// over t. Layer times are means over t's complete cycles, not medians:
// a pool mixes configurations whose stage times differ several-fold
// (x86s and arms unit builds, say), and a median sitting between two
// modes jumps when either mode shifts a little.
func perLayer(u, t phase, snap telemetry.Snapshot) map[string]metric {
	c := snap.Counters
	ctr := func(names ...string) float64 {
		var n uint64
		for _, name := range names {
			n += c[name]
		}
		return float64(n)
	}

	var (
		verdict, deliver, cfiDeliver, recycle, fresh []int64
		recon, payload, pump, build                  []int64
		busy, capacity, reconSum, deliverSum         int64
		instr                                        uint64
		victimBuild                                  int64
		divSeeds, worlds                             int
		pumpSum, delivered                           int64
	)
	ops := t.complete()
	for i := range ops {
		o := &ops[i]
		busy += o.busyNs
		capacity += o.capNs
		reconSum += o.reconSumNs
		victimBuild += o.victimBuildNs
		divSeeds += o.divSeeds
		if o.reconSpanNs > 0 {
			recon = append(recon, o.reconSpanNs)
			payload = append(payload, o.payloadSpanNs)
		} else if o.reconPerBuildNs > 0 {
			recon = append(recon, o.reconPerBuildNs)
			payload = append(payload, o.payloadPerBuildNs)
		}
		instr += o.ref.Instr
		for _, d := range o.devices {
			verdict = append(verdict, d.stage[campaign.StageVerdict])
			deliver = append(deliver, d.stage[campaign.StageDeliver])
			deliverSum += d.stage[campaign.StageDeliver]
			if d.class&classCFI != 0 {
				cfiDeliver = append(cfiDeliver, d.stage[campaign.StageDeliver])
			}
			if o.pooled && d.class&classPoolable != 0 {
				recycle = append(recycle, d.stage[campaign.StageVictim])
			} else {
				fresh = append(fresh, d.stage[campaign.StageVictim])
			}
		}
		if o.scale != nil {
			worlds++
			pump = append(pump, o.pumpNs)
			build = append(build, o.scale.WallNs-o.pumpNs)
			pumpSum += o.pumpNs
			delivered += int64(o.scale.Delivered)
		}
	}
	sortInt64(fresh)
	us := func(s []int64) float64 { return mean(s) / 1e3 }
	// The counters cover every op of t, the incomplete last cycle too.
	var allWorlds int
	for i := range t.ops {
		if t.ops[i].scale != nil {
			allWorlds++
		}
	}
	perWorld := func(names ...string) float64 { return ratio(ctr(names...), float64(allWorlds)) }

	var cycleInstr uint64
	var cycleTrials, violations int
	// Exact counts come from the first complete cycle: the same multiset
	// of ops for every seed, whatever the host speed.
	if cyc := t.cycles(); len(cyc) > 0 {
		for _, o := range cyc[0] {
			cycleInstr += o.ref.Instr
			cycleTrials += o.trials
			violations += o.ref.SpecViolations
		}
	}
	instrPerTrial := ratio(float64(cycleInstr), float64(cycleTrials))
	if worlds > 0 {
		// Scale worlds return no per-victim instruction counts: use the
		// kernel's counter, which also holds the op's recon probes.
		instrPerTrial = ratio(ctr("emu_instructions"), float64(t.trials))
	}

	var uDelivered int64
	for i := range u.ops {
		if s := u.ops[i].scale; s != nil {
			uDelivered += int64(s.Delivered)
		}
	}
	var rusage syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &rusage) // zero on failure

	nops := float64(len(t.ops))
	return map[string]metric{
		"campaign.worker_busy_frac":   {ratio(float64(busy), float64(capacity)), "ratio"},
		"campaign.pool_recycle_ratio": {ratio(ctr("pool_recycle"), ctr("pool_recycle", "pool_fresh")), "ratio"},
		"campaign.recon_builds":       {ratio(ctr("recon_build"), nops), "count/op"},
		"campaign.recon_hits":         {ratio(ctr("recon_hit"), nops), "count/op"},
		"campaign.verdict_us":         {us(verdict), "us"},
		"campaign.spec_violations":    {float64(violations), "count"},
		"exploit.recon_us":            {us(recon), "us"},
		"exploit.payload_us":          {us(payload), "us"},
		"exploit.recon_share":         {ratio(float64(reconSum), float64(capacity)), "ratio"},
		"gadget.scan_hit_ratio":       {ratio(ctr("gadget_scan_hit"), ctr("gadget_scan_hit", "gadget_scan_build")), "ratio"},
		"victim.recycle_us":           {us(recycle), "us"},
		"victim.fresh_load_us":        {us(fresh), "us"},
		"victim.fresh_load_p99_us":    {float64(pct(fresh, 0.99)) / 1e3, "us"},
		"kernel.deliver_us":           {us(deliver), "us"},
		"kernel.ns_per_instr":         {ratio(float64(deliverSum), float64(instr)), "ns"},
		"kernel.instr_per_trial":      {instrPerTrial, "count"},
		"isa.block_hit_ratio": {ratio(ctr("x86s_block_hit", "arms_block_hit"),
			ctr("x86s_block_hit", "arms_block_hit", "x86s_block_translate", "arms_block_translate")), "ratio"},
		"isa.decode_hit_ratio": {ratio(ctr("x86s_decode_hit", "arms_decode_hit"),
			ctr("x86s_decode_hit", "arms_decode_hit", "x86s_decode_miss", "arms_decode_miss")), "ratio"},
		"isa.block_instr_frac":       {ratio(ctr("x86s_block_instructions", "arms_block_instructions"), ctr("emu_instructions")), "ratio"},
		"defense.cfi_deliver_us":     {us(cfiDeliver), "us"},
		"defense.diversity_build_us": {ratio(float64(victimBuild), float64(divSeeds)) / 1e3, "us"},
		"netsim.dgrams_per_s":        {ratio(float64(uDelivered), float64(u.wallNs)/1e9), "dgrams/s"},
		"netsim.pump_ms":             {mean(pump) / 1e6, "ms"},
		"netsim.build_ms":            {mean(build) / 1e6, "ms"},
		"netsim.ns_per_dgram":        {ratio(float64(pumpSum), float64(delivered)), "ns"},
		"netsim.delivered":           {perWorld("net_delivered"), "count"},
		"netsim.dropped":             {perWorld("net_dropped"), "count"},
		"netsim.epochs":              {perWorld("net_epochs"), "count"},
		"netsim.epoch_batch_p50":     {float64(snap.Histograms["net_epoch_batch"].P50), "count"},
		"netsim.queue_depth_p99":     {float64(snap.Histograms["net_queue_depth"].P99), "count"},
		"netsim.cross_shard":         {perWorld("net_cross_shard"), "count"},
		"dnsserver.resolved":         {perWorld("dns_resolved"), "count"},
		"dnsserver.hijacked":         {perWorld("dns_hijacked"), "count"},
		"telemetry.overhead_frac":    {ratio(u.trialsPerSec(), t.trialsPerSec()) - 1, "ratio"},
		"runtime.alloc_kb_per_trial": {ratio(float64(u.allocB)/1024, float64(u.trials)), "KiB/trial"},
		"runtime.gc_cycles_per_s":    {ratio(float64(u.gcCycles), float64(u.elapsedNs)/1e9), "1/s"},
		"runtime.peak_rss_mb":        {float64(rusage.Maxrss) / 1024, "MB"},
	}
}

// crossCheck compares the traced phase t with the untraced phase u of
// the same seed, op by op, and the telemetry counters of t with the
// counts the program returned for the same ops; it returns one message
// per disagreement.
func crossCheck(u, t phase, snap telemetry.Snapshot) []string {
	var bad []string
	for i := 0; i < len(u.ops) && i < len(t.ops); i++ {
		if u.ops[i].ref != t.ops[i].ref {
			bad = append(bad, fmt.Sprintf("op %d differs with tracing on: %+v, untraced %+v", i, t.ops[i].ref, u.ops[i].ref))
		}
	}
	want := map[string]int{}
	for i := range t.ops {
		if s := t.ops[i].scale; s != nil {
			want["net_delivered"] += s.Delivered
			want["net_dropped"] += s.Dropped
			want["dns_resolved"] += s.BaselineResolved
			want["dns_hijacked"] += s.Hijacked
		}
	}
	for name, n := range want {
		if got := snap.Counters[name]; got != uint64(n) {
			bad = append(bad, fmt.Sprintf("telemetry %s=%d, program returned %d", name, got, n))
		}
	}
	return bad
}

// timeShares is the "where the time goes" table of a traced phase: each
// layer's share of the op capacity (wall × workers), with the remainder
// no layer claims as its own row.
func timeShares(t phase) [][2]string {
	var rows [8]int64
	names := [8]string{"recon", "payload", "victim", "deliver", "verdict", "netsim pump", "netsim build", "unattributed"}
	var capacity int64
	for i := range t.ops {
		o := &t.ops[i]
		capacity += o.capNs
		rows[0] += o.reconSpanNs
		rows[1] += o.payloadSpanNs
		for _, d := range o.devices {
			for s := 0; s < campaign.NumStages; s++ {
				rows[s] += d.stage[s]
			}
		}
		if o.scale != nil {
			rows[5] += o.pumpNs
			rows[6] += o.scale.WallNs - o.pumpNs
		}
	}
	rows[7] = capacity
	for _, v := range rows[:7] {
		rows[7] -= v
	}
	out := make([][2]string, len(rows))
	for i, v := range rows {
		out[i] = [2]string{names[i], fmt.Sprintf("%5.1f%%", 100*ratio(float64(v), float64(capacity)))}
	}
	return out
}

// mean returns the mean of s (0 when empty).
func mean(s []int64) float64 {
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return ratio(sum, float64(len(s)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// pct is the nearest-rank q-quantile of sorted samples (0 when empty).
func pct(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q*float64(len(sorted)))) - 1
	if r < 0 {
		r = 0
	}
	if r >= len(sorted) {
		r = len(sorted) - 1
	}
	return sorted[r]
}
