#!/bin/sh
# Micro-benchmark harness: runs the root-package benchmarks (Step and
# block-dispatch loops, Recon, gadget scan, campaign fleet, netsim pump,
# zone lookup, telemetry-on variants, snapshot merge) and records ns/op and allocs/op
# per benchmark in BENCH_10.json, the machine-readable companion to the
# Performance table in EXPERIMENTS.md.
#
# Each benchmark runs in its own process: the heavyweight campaign
# benchmarks otherwise leave enough heap behind to inflate GC-sensitive
# neighbors like Recon by 30%+. Each process runs the benchmark COUNT
# times and the recorded ns/op is the minimum of the samples: on a
# shared VM the scheduling noise is strictly additive, so min-of-N is
# the estimator least polluted by noisy neighbors and keeps the 10%
# regression guard meaningful.
#
# Paired mode, the default: BASE names a git revision (HEAD when unset,
# so the working tree is compared against its last commit; on a clean
# tree pass BASE=HEAD~1). The script builds that revision's test binary
# from `git archive` and runs every benchmark COUNT times on each side,
# alternating which side goes first in each pair. The 10% guard is
# applied to the median of the per-pair ns/op deltas, so host drift
# between pairs cancels out; the table also shows each side's median.
# Paired mode writes no JSON. Comparing against numbers recorded
# earlier instead is not a test of a change on a host whose speed
# drifts by 15-40% over minutes to an hour.
#
# File mode: with BASE=<file>, or BASE= (empty) for the most recent
# other BENCH_*.json, the script writes OUT and then compares against
# that file: it prints a per-benchmark ns/op delta table and exits
# non-zero if any benchmark regressed more than 10%. Benchmarks only in
# the baseline are listed as removed (not a failure). COMPARE=0 writes
# OUT and skips the comparison.
#
#   sh scripts/bench.sh
#   BASE=HEAD~1 COUNT=5 BENCHTIME=1s sh scripts/bench.sh
#   BENCHTIME=5s OUT=/tmp/bench.json COMPARE=0 sh scripts/bench.sh
#   BASE=BENCH_2.json sh scripts/bench.sh
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
COUNT="${COUNT:-3}"
OUT="${OUT:-BENCH_10.json}"
COMPARE="${COMPARE:-1}"
BASE="${BASE-HEAD}"
TMP="$(mktemp)"
BIN="$(mktemp)"
trap 'rm -f "$TMP" "$BIN"' EXIT

go test -c -o "$BIN" .

if [ "$COMPARE" != "0" ] && [ -n "$BASE" ] && [ ! -f "$BASE" ] && git rev-parse -q --verify "$BASE^{commit}" > /dev/null; then
    BASEDIR="$(mktemp -d)"
    BASEBIN="$(mktemp)"
    trap 'rm -rf "$TMP" "$BIN" "$BASEDIR" "$BASEBIN"' EXIT
    git archive "$BASE" | tar -x -C "$BASEDIR"
    (cd "$BASEDIR" && go test -c -o "$BASEBIN" .)
    echo "paired: $BASE (base) vs working tree (now), $COUNT pairs of $BENCHTIME runs"
    for name in $("$BIN" -test.list 'Benchmark.*'); do
        pair=1
        while [ "$pair" -le "$COUNT" ]; do
            if [ $((pair % 2)) = 1 ]; then order="base now"; else order="now base"; fi
            for side in $order; do
                # Each binary runs from its own source tree.
                if [ "$side" = base ]; then b="$BASEBIN" dir="$BASEDIR"; else b="$BIN" dir=.; fi
                (cd "$dir" && "$b" -test.run '^$' -test.bench "^${name}\$" -test.benchmem \
                    -test.benchtime "$BENCHTIME" -test.count 1) |
                    sed -n "s/^Benchmark/$side $pair Benchmark/p" | tee -a "$TMP"
            done
            pair=$((pair + 1))
        done
    done
    echo
    echo "paired ns/op, median over $COUNT pairs (>10% median pair delta fails):"
    awk -v fail=10 '
    function median(a, k,   i, j, t) {
        for (i = 1; i < k; i++)
            for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        return k % 2 ? a[int(k / 2)] : (a[k / 2 - 1] + a[k / 2]) / 2
    }
    {
        ns = ""
        for (i = 4; i <= NF; i++) if ($i == "ns/op") ns = $(i - 1)
        if (ns == "") next
        name = $3
        if (!(name in seen)) { seen[name] = 1; order[n++] = name }
        v[$1, name, $2] = ns + 0
        pairs[name, $2] = 1
        if ($2 > maxpair) maxpair = $2
    }
    END {
        printf "  %-45s %12s %12s %8s\n", "benchmark", "base", "now", "delta"
        worst = 0
        for (i = 0; i < n; i++) {
            name = order[i]; kb = kn = kd = 0
            split("", b); split("", c); split("", d)
            for (p = 1; p <= maxpair; p++) {
                hb = (("base", name, p) in v); hn = (("now", name, p) in v)
                if (hb) b[kb++] = v["base", name, p]
                if (hn) c[kn++] = v["now", name, p]
                if (hb && hn) d[kd++] = 100 * (v["now", name, p] - v["base", name, p]) / v["base", name, p]
            }
            if (kd == 0) {
                printf "  %-45s %12s %12s %8s\n", name, (kb ? median(b, kb) : "-"), (kn ? median(c, kn) : "-"), (kb ? "removed" : "new")
                continue
            }
            delta = median(d, kd)
            printf "  %-45s %12.1f %12.1f %+7.1f%%\n", name, median(b, kb), median(c, kn), delta
            if (delta > worst) { worst = delta; worstname = name }
        }
        if (worst > fail) {
            printf "FAIL: %s regressed %.1f%% (median pair delta, limit %d%%)\n", worstname, worst, fail
            exit 1
        }
        printf "ok: no benchmark regressed more than %d%%\n", fail
    }
    ' "$TMP"
    exit
fi

for name in $("$BIN" -test.list 'Benchmark.*'); do
    "$BIN" -test.run '^$' -test.bench "^${name}\$" -test.benchmem \
        -test.benchtime "$BENCHTIME" -test.count "$COUNT" | tee -a "$TMP"
done

# Token-scan each result line rather than relying on column positions:
# benchmarks that ReportMetric extra values (e.g. instrs/op) have more
# fields than the plain ns/op + allocs/op shape. With -count > 1 each
# benchmark emits several lines; keep the minimum ns/op sample.
awk '
/^Benchmark/ {
    ns = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    if (!($1 in best)) { order[n++] = $1 } else if (ns + 0 >= best[$1]) next
    best[$1] = ns + 0
    seen[$1] = "{\"ns_per_op\": " ns ", \"allocs_per_op\": " \
        (allocs == "" ? "null" : allocs) "}"
}
END {
    printf "{\n"
    for (i = 0; i < n; i++)
        printf "  \"%s\": %s%s\n", order[i], seen[order[i]], (i < n - 1 ? "," : "")
    printf "}\n"
}
' "$TMP" > "$OUT"

echo "wrote $OUT"

[ "$COMPARE" = "0" ] && exit 0

# Pick the comparison baseline: explicit BASE, else the newest BENCH_*.json
# that is not the file just written.
if [ -z "${BASE:-}" ]; then
    BASE="$(ls -1 BENCH_*.json 2>/dev/null | grep -Fxv "$(basename "$OUT")" | sort | tail -n 1 || true)"
fi
if [ -z "${BASE:-}" ] || [ ! -f "$BASE" ]; then
    echo "no baseline BENCH_*.json to compare against; skipping comparison"
    exit 0
fi

echo
echo "comparing $OUT against $BASE (ns/op; >10% slower fails):"

# The JSON is the fixed one-benchmark-per-line shape this script writes,
# so a field scan is enough — no JSON parser needed.
awk -v fail=10 '
function parse(line, f,   name, ns) {
    if (line !~ /"ns_per_op"/) return
    name = line; sub(/^[ \t]*"/, "", name); sub(/".*/, "", name)
    ns = line; sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
    if (f == 1) { if (!(name in base_ns)) base_order[m++] = name; base_ns[name] = ns + 0 }
    else if (!(name in cur_ns)) { cur_ns[name] = ns + 0; order[n++] = name }
}
NR == FNR { parse($0, 1); next }
{ parse($0, 2) }
END {
    printf "  %-45s %12s %12s %8s\n", "benchmark", "base", "now", "delta"
    worst = 0
    for (i = 0; i < n; i++) {
        name = order[i]
        if (!(name in base_ns)) {
            printf "  %-45s %12s %12.0f %8s\n", name, "-", cur_ns[name], "new"
            continue
        }
        d = 100 * (cur_ns[name] - base_ns[name]) / base_ns[name]
        printf "  %-45s %12.0f %12.0f %+7.1f%%\n", name, base_ns[name], cur_ns[name], d
        if (d > worst) { worst = d; worstname = name }
    }
    for (i = 0; i < m; i++) {
        name = base_order[i]
        if (!(name in cur_ns))
            printf "  %-45s %12.0f %12s %8s\n", name, base_ns[name], "-", "removed"
    }
    if (worst > fail) {
        printf "FAIL: %s regressed %.1f%% (limit %d%%)\n", worstname, worst, fail
        exit 1
    }
    printf "ok: no benchmark regressed more than %d%%\n", fail
}
' "$BASE" "$OUT"
