#!/bin/sh
# Tier-1 verification: formatting, vet, build, full test suite, race
# detector over the concurrent packages, then the fuzz smokes, the
# inlining checks and the golden transcripts every CLI must reproduce
# byte for byte. `make check` runs this script.
set -eux

cd "$(dirname "$0")/.."

# gofmt -l prints offending files without failing; turn any output into
# a hard failure before spending time on tests.
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" "$UNFORMATTED" >&2
    exit 1
fi
go vet ./...
go build ./...
go test ./...
go test -race ./internal/telemetry/... ./internal/campaign/... ./internal/core/... \
    ./internal/netsim/... ./internal/dnsserver/...
# The netsim with the recycled-buffer poison armed: handlers
# that retain payload aliases fail deterministically under this tag.
# Every payload buffer is reused, so the campaign's light stations and
# the DNS servers run poisoned too.
go test -tags netsimdebug ./internal/netsim/ ./internal/campaign/ ./internal/dnsserver/
# The differential lockstep harness under the race detector: block
# dispatch and single-step must agree instruction-for-instruction while
# the race detector watches the translator's cache bookkeeping (-short
# trims the randomized-program target from 600k to 100k instructions).
go test -race -short ./internal/isa/isatest
# Short differential fuzz smokes over both block translators; any
# divergence found here is a translator bug by definition.
go test -run '^$' -fuzz FuzzBlockStep -fuzztime 5s ./internal/isa/x86s
go test -run '^$' -fuzz FuzzBlockStep -fuzztime 5s ./internal/isa/arms
# The copy-loop summary against single-stepping: fuzzed counts, overlaps,
# segment ends, caps and (on arms) registers, on both ISAs (the ISA is a
# fuzzed input, so 10 s gives each about the 5 s of the smokes above).
go test -run '^$' -fuzz FuzzCopyLoop -fuzztime 10s ./internal/isa/isatest
# Kept, rebased and library translations against fresh ones: after maps,
# unmaps, slides, moves, permission flips, stores, seals and resets of
# both ISAs' victim images, every block a refill serves must equal a
# fresh translation at its PC.
go test -run '^$' -fuzz FuzzKeptTranslation -fuzztime 5s ./internal/isa/isatest
# The memory accessors against a window-free oracle: values, faults and
# dirty ranges must not depend on what the access windows hold.
go test -run '^$' -fuzz FuzzMemoryOps -fuzztime 5s ./internal/mem
# An image slid by a fuzzed page-aligned delta must equal a relink at the
# slid layout, for every victim, libc and diversity build on both ISAs.
go test -run '^$' -fuzz FuzzSlide -fuzztime 5s ./internal/image
# A link must equal the per-call link it replaced (kept as a test
# reference), through every accessor, for fuzzed function orders, pads
# and layouts over every victim build and libc of both ISAs.
go test -run '^$' -fuzz FuzzLinkOptions -fuzztime 5s ./internal/image
# The access-window hits must stay within the compiler's inline budget
# and inline into both block executors: an edit that pushes one over the
# budget would otherwise silently give the hot path's gain back.
INLINED="$(go build -gcflags=-m ./internal/mem 2>&1)"
for h in Load8 Store8 Load32 Store32 Code32 CodeWindow; do
    if ! echo "$INLINED" | grep -q "can inline (\*Memory)\.$h\$"; then
        echo "mem.(*Memory).$h is no longer inlinable" >&2
        exit 1
    fi
done
for a in x86s arms; do
    INLINED="$(go build -gcflags=-m "./internal/isa/$a" 2>&1)"
    for h in Load8 Store8 Load32 Store32; do
        if ! echo "$INLINED" | grep -q "block.go:.*inlining call to mem.(\*Memory)\.$h\$"; then
            echo "internal/isa/$a/block.go no longer inlines mem.(*Memory).$h" >&2
            exit 1
        fi
    done
done
# The wire-format zone trie against its map oracle: random wire names
# in, byte-identical hit/miss decisions out (and AddWire, fed the same
# names' wire form or raw bytes, agreeing with Add and refusing every
# key that is not a plain wire name).
go test -run '^$' -fuzz FuzzZoneTrie -fuzztime 5s ./internal/dnsserver
# Lease routing against the one-map routing it replaced: static and DHCP
# hosts, overlapping pools, re-association and sends to live, stale and
# unknown addresses must reach the same host or drop for the same reason.
go test -run '^$' -fuzz FuzzRouting -fuzztime 5s ./internal/netsim
# The MITM's interning-free question check against View.Question: it
# must accept exactly the packets the full decode accepts.
go test -run '^$' -fuzz FuzzCheckQuestion -fuzztime 5s ./internal/dns
# The scenario spec parser: never panics, and every accepted spec
# round-trips through its canonical rendering.
go test -run '^$' -fuzz FuzzScenarioSpec -fuzztime 5s ./internal/scenario
# Every embedded scenario must validate and compile, and the matrix
# preset — compiled from the connman spec — must reproduce the seed
# golden canonical report byte-for-byte.
for s in $(go run ./cmd/dbgsh scenario list | awk '{print $1}'); do
    go run ./cmd/dbgsh scenario dump "$s" > /dev/null
done
go run ./cmd/campaign -preset matrix -canonical | cmp - internal/scenario/testdata/paper_matrix.golden
# The full reports of the specs no other cmp covers; heap-adjacent's
# victim is the one whose heap is sized to hold the allocator's arena.
for s in heap-adjacent offbyone-fp dnsmasq; do
    go run ./cmd/campaign -scenario "$s" -canonical | cmp - "cmd/campaign/testdata/scenario_$s.golden"
done
# A real CLI transcript: the W⊕X+ASLR ROP attack on ARM must stay
# byte-identical to the recorded one.
go run ./cmd/attack -arch arms -kind rop-memcpy -wx -aslr | cmp - cmd/attack/testdata/arms_rop-memcpy_wx_aslr.golden
# The diversity-broken execlp chain hangs; block dispatch proves the loop
# and fast-forwards it to the same budget-exhausted verdict.
go run ./cmd/attack -arch arms -kind rop-execlp -wx -diversity 30 | cmp - cmd/attack/testdata/arms_rop-execlp_wx_div30.golden
# X2's compression-pointer loop is the only real-victim hang on x86s:
# block dispatch must prove it on both ISAs and reach the recorded
# timeout verdicts.
go run ./cmd/experiments -exp x2 | cmp - cmd/experiments/testdata/x2.golden
# E10 is the §IV table: CFI, canary, full PIE and diversity against the
# six working exploits on both ISAs. Its rows run on recon probes shared
# across postures and daemons recycled across builds, which must not move
# a verdict.
go run ./cmd/experiments -exp e10 | cmp - cmd/experiments/testdata/e10.golden
# §III-D through the one rogue-AP world: E9 (baseline, re-association,
# hijack and verdict on both ISAs) and the lab's full network event log
# were recorded before the world was shared and must not move.
go run ./cmd/experiments -exp e9 | cmp - cmd/experiments/testdata/e9.golden
go run ./cmd/pineapple -v | cmp - cmd/pineapple/testdata/pineapple_v.golden
# The wired MITM resolver: payload, network event log and verdict.
go run ./cmd/dnsmitm | cmp - cmd/dnsmitm/testdata/x86s_code-injection.golden
# Every other deterministic experiment report (e9scale prints wall
# time) and the four example programs, recorded before internal/core's
# wrappers were deleted: the lab's experiments run on campaign scenarios
# directly and must not move.
for x in e1 e2 e3 e4 e5 e6 e7 e8 e11 e12 x1 x3; do
    go run ./cmd/experiments -exp "$x"
done | cmp - cmd/experiments/testdata/experiments.golden
for e in mitigation-eval other-cves quickstart rogue-ap; do
    go run "./examples/$e" | cmp - "examples/$e/testdata/stdout.golden"
done
# A CFI veto delivered through the rogue AP is BLOCKED, exactly as when
# the packet is handed straight to the daemon: every delivery path
# judges with Classify.
go run ./cmd/campaign -preset fleet -arch arms -kind rop-memcpy -wx -aslr -cfi -devices 3 -canonical \
    | cmp - cmd/campaign/testdata/fleet_arms_rop-memcpy_wx_aslr_cfi.golden
# Live observability surface: labd must serve /metrics and /snapshot
# (schema v2) while a campaign loop runs on an ephemeral port, and the
# off-by-default contract must hold — a campaign's canonical transcript
# is byte-identical whether or not -listen is set.
OBSDIR="$(mktemp -d)"
go build -o "$OBSDIR/labd" ./cmd/labd
"$OBSDIR/labd" -listen 127.0.0.1:0 -devices 4 -workers 2 -repeat 0 \
    -max-runtime 120s > "$OBSDIR/labd.out" &
LABD_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's,^labd: serving http://,,p' "$OBSDIR/labd.out")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ]
# Retry the first scrape briefly: the campaign loop may still be warming.
for _ in $(seq 1 50); do
    if curl -sf "http://$ADDR/metrics" > "$OBSDIR/metrics.txt" 2>/dev/null \
        && grep -q '^connlab_emu_runs [1-9]' "$OBSDIR/metrics.txt"; then
        break
    fi
    sleep 0.1
done
grep -q '^# TYPE connlab_emu_runs counter$' "$OBSDIR/metrics.txt"
grep -q '^connlab_emu_runs [1-9]' "$OBSDIR/metrics.txt"
curl -sf "http://$ADDR/snapshot" > "$OBSDIR/snapshot.json"
grep -q '"schema_version": 2' "$OBSDIR/snapshot.json"
curl -sf "http://$ADDR/events?once=1" > /dev/null
curl -sf "http://$ADDR/trace" > /dev/null
go run ./cmd/dbgsh telemetry -watch "$ADDR" -interval 0.2s -n 2 > "$OBSDIR/watch.txt"
grep -q "^watching $ADDR" "$OBSDIR/watch.txt"
kill "$LABD_PID" 2>/dev/null || true
wait "$LABD_PID" 2>/dev/null || true
go run ./cmd/campaign -preset fleet -devices 4 -canonical > "$OBSDIR/plain.txt"
go run ./cmd/campaign -preset fleet -devices 4 -canonical -listen 127.0.0.1:0 \
    > "$OBSDIR/listen.txt" 2> /dev/null
cmp "$OBSDIR/plain.txt" "$OBSDIR/listen.txt"
rm -rf "$OBSDIR"
# One iteration of every micro-benchmark: catches benchmarks that no
# longer compile or fail at runtime without paying for a timed run.
go test -run '^$' -bench . -benchtime 1x .
