#!/bin/sh
# Tier-1 verification: formatting, vet, build, full test suite, race
# detector over the concurrent packages. Equivalent to `make check` for
# environments without make.
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
# The wire-format zone trie against its map oracle: random wire names
# in, byte-identical hit/miss decisions out.
go test -run '^$' -fuzz FuzzZoneTrie -fuzztime 5s ./internal/dnsserver
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
