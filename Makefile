# Tier-1 verification for connlab. `make check` is what CI and the
# roadmap mean by "tier-1": it runs scripts/check.sh, which adds the
# fuzz smokes, the inlining checks and every golden transcript `cmp` to
# the fmt, vet, build, test and race targets below.

GO ?= go

.PHONY: check fmt vet build test race fuzz bench

check:
	sh scripts/check.sh

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on: $$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/telemetry/... ./internal/campaign/... ./internal/core/... \
		./internal/netsim/... ./internal/dnsserver/...
	$(GO) test -tags netsimdebug ./internal/netsim/ ./internal/campaign/ ./internal/dnsserver/

# Short budgeted runs of every native fuzz target (seed corpora already
# run as part of `make test`).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz FuzzDecodeMessage -fuzztime $(FUZZTIME) ./internal/dns/
	$(GO) test -fuzz FuzzSkipName -fuzztime $(FUZZTIME) ./internal/dns/
	$(GO) test -fuzz FuzzEncodeDecodeRoundTrip -fuzztime $(FUZZTIME) ./internal/dns/
	$(GO) test -fuzz FuzzCheckQuestion -fuzztime $(FUZZTIME) ./internal/dns/
	$(GO) test -fuzz FuzzStep -fuzztime $(FUZZTIME) ./internal/isa/x86s/
	$(GO) test -fuzz FuzzStep -fuzztime $(FUZZTIME) ./internal/isa/arms/
	$(GO) test -fuzz FuzzBlockStep -fuzztime $(FUZZTIME) ./internal/isa/x86s/
	$(GO) test -fuzz FuzzBlockStep -fuzztime $(FUZZTIME) ./internal/isa/arms/
	$(GO) test -fuzz FuzzCopyLoop -fuzztime $(FUZZTIME) ./internal/isa/isatest/
	$(GO) test -fuzz FuzzKeptTranslation -fuzztime $(FUZZTIME) ./internal/isa/isatest/
	$(GO) test -fuzz FuzzMemoryOps -fuzztime $(FUZZTIME) ./internal/mem/
	$(GO) test -fuzz FuzzScan -fuzztime $(FUZZTIME) ./internal/gadget/
	$(GO) test -fuzz FuzzSlide -fuzztime $(FUZZTIME) ./internal/image/
	$(GO) test -fuzz FuzzLinkOptions -fuzztime $(FUZZTIME) ./internal/image/
	$(GO) test -fuzz FuzzZoneTrie -fuzztime $(FUZZTIME) ./internal/dnsserver/
	$(GO) test -fuzz FuzzRouting -fuzztime $(FUZZTIME) ./internal/netsim/
	$(GO) test -fuzz FuzzScenarioSpec -fuzztime $(FUZZTIME) ./internal/scenario/

# Paired benchmark run: builds HEAD's test binary and runs every
# benchmark on it and on the working tree in alternating pairs, failing
# on a >10% median per-pair ns/op regression (see scripts/bench.sh for
# BASE=<revision or file>, BENCHTIME, COUNT, OUT and COMPARE overrides;
# BASE=<file> or COMPARE=0 writes BENCH_10.json).
bench:
	sh scripts/bench.sh
