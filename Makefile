GO ?= go

.PHONY: all build loc vet fmt-check lint fuzz-short test race bench bench-harness bench-nfd golden claims examples plan chaos-smoke neutral

all: build lint test

build:
	$(GO) build ./...

# Non-test Go lines, whole tree and per directory, by the one definition
# simplicity PRs report against: tracked *.go, not _test.go, outside
# benchmark/ and testdata/. Informational; stage new files first (git
# ls-files reads the index).
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '/testdata/' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
	     END { printf "%7d non-test Go lines\n", t; for (d in n) printf "%7d %s\n", n[d], d | "sort -k2" }'

vet:
	$(GO) vet ./...

# gofmt over every tracked .go file outside testdata/ (lint fixtures are
# formatted on purpose or not at all); any name printed is a failure.
fmt-check:
	@unformatted="$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# The contract gate: gofmt, go vet, plus dapes-lint, the repo's own go/analysis-style
# suite (internal/lint, docs/CONTRACTS.md). dapes-lint machine-checks the
# six invariants every golden-trace and perf gate depends on — kernel clock
# + seeded RNG on simulation paths (simclock), no map-iteration order reaching
# scheduling/wire/stats/sends or unsorted output slices (maporder), wire-frame
# views stay read-only and encoded packets aren't mutated without
# InvalidateWire (wireimmut), no map keyed by an ndn.Name rendered at the
# lookup (namekey), package unsafe imported by internal/ndn alone (unsafe),
# and no declaration under internal/ that only tests reach (unreferenced,
# which type-checks the root module and benchmark/ together).
# Fails on any unsuppressed diagnostic; suppress only with
# `//lint:ignore <analyzer> <reason>`.
lint: fmt-check vet
	$(GO) run ./cmd/dapes-lint ./...

# The corpus smoke: every Fuzz* target in the tree for ~10s each, so a codec
# or parser regression against the seed corpus surfaces per-PR instead of
# never. (go test allows one fuzz target per invocation, hence one line per
# target.) -fuzzminimizetime caps how long Go's engine spends minimizing a
# new interesting input: at its default of 60 s, one minimization can take
# the rest of a target's budget, and its exec counter stops rising.
fuzz-short:
	$(GO) test -run=NONE -fuzz=FuzzTLVRoundTrip -fuzztime=10s -fuzzminimizetime=1s ./internal/ndn/
	$(GO) test -run=NONE -fuzz=FuzzDataSignedRange -fuzztime=10s -fuzzminimizetime=1s ./internal/ndn/
	$(GO) test -run=NONE -fuzz=FuzzPlanFile -fuzztime=10s -fuzzminimizetime=1s ./internal/plan/
	$(GO) test -run=NONE -fuzz=FuzzDiscoveryPayload -fuzztime=10s -fuzzminimizetime=1s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzBitmapPayload -fuzztime=10s -fuzzminimizetime=1s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzFaultPlan -fuzztime=10s -fuzzminimizetime=1s ./internal/plan/
	$(GO) test -run=NONE -fuzz=FuzzPlanWithFaults -fuzztime=10s -fuzzminimizetime=1s ./internal/plan/
	$(GO) test -run=NONE -fuzz=FuzzBitmapCodec -fuzztime=10s -fuzzminimizetime=1s ./internal/bitmap/
	$(GO) test -run=NONE -fuzz=FuzzRoutingFrame -fuzztime=10s -fuzzminimizetime=1s ./internal/routing/
	$(GO) test -run=NONE -fuzz=FuzzSimFlags -fuzztime=10s -fuzzminimizetime=1s ./cmd/dapes-sim/

test:
	$(GO) test ./...

# internal/experiment alone takes over 8 minutes under -race on two cores,
# close to go test's 10-minute default.
race:
	$(GO) test -race -timeout 30m ./...

# Every benchmark in the tree, once each, so benches can't rot.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The repo benchmark's harness (BENCHMARK.json, benchmark/) is a nested
# module the root ./... patterns never reach: vet it and run its own tests.
bench-harness:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# The forwarder-table benchmarks at measurement length, with allocation
# counts in the log: the name-tree lookups must report 0 allocs/op (pinned by
# TestLookupPathsDoNotAllocate).
bench-nfd:
	$(GO) test -run=NONE -bench='BenchmarkCsPrefixFind|BenchmarkFibLookup' -benchmem -benchtime=300ms ./internal/nfd/

# The plan smoke: run the committed CI plan file through the declarative
# harness with a 4-worker fan-out. The JSON-lines stream and report are
# byte-identical to -workers=1 (TestGoldenPlanDeterminism and
# TestCommittedPlansRunDeterministically pin that); this target proves the
# CLI end of the contract stays runnable in seconds.
plan:
	$(GO) run ./cmd/dapes-plan run plans/ci-smoke.toml -workers=4

# The chaos smoke: the committed chaos-smoke plan (urban-grid-chaos with
# crashes, cold restarts, and Gilbert-Elliott bursty loss) once. Its horizon
# is generous enough that every downloader re-completes after restarting,
# so the target fails unless every JSON-lines row has completed ==
# downloaders.
chaos-smoke:
	$(GO) run ./cmd/dapes-plan run plans/chaos-smoke.toml -o /dev/null > /tmp/dapes-chaos-smoke.jsonl
	@test -s /tmp/dapes-chaos-smoke.jsonl
	@if grep -vE '"completed":([0-9]+),"downloaders":\1[,}]' /tmp/dapes-chaos-smoke.jsonl; then \
		echo "chaos-smoke: a cell left downloaders incomplete"; exit 1; fi
	@echo "chaos-smoke: every downloader re-completed under churn"

# The determinism, equivalence and zero-alloc gates, selected by name so the
# list cannot rot: every test in the tree called TestGolden*, or named for
# what it holds equal (…Matches<Reference>, …TraceNeutral, …Determinis*,
# …NotAllocate). That is grid==naive and wheel==heap byte-identical for every
# registered scenario — each arm asserting which engine it built — plus the
# kernel-, medium- and trial-level halves of the same properties and the
# 0 allocs/op pins. A new
# gate joins by being named like one, in ./internal/... or ./cmd/...
# (dapes-bench's TestGoldenQuickFigures pins every figure panel
# at quick scale against a committed testdata/quick.json).
GOLDEN = ^TestGolden|Matches|TraceNeutral|Determinis|NotAllocate
golden:
	$(GO) test -run '$(GOLDEN)' -count=1 ./internal/... ./cmd/...

# The paper's claims (internal/experiment/paper_test.go), with the log of
# every row: the seed means of the series it compares, each series'
# completed/downloaders count, and the verdict.
claims:
	$(GO) test -run 'TestPaperClaims|TestPaperFig9[gh]' -count=1 -v ./internal/experiment

# The example binaries, built and executed end to end: each must exit 0
# within its deadline (examples/smoke_test.go).
examples:
	$(GO) test -count=1 ./examples/

# The trace- and output-neutrality check (scripts/neutral.sh): dapes-sim
# over every listed scenario, its default run, the seven design flags and a
# fault file,
# dapes-plan over the CI smoke plan, and dapes-bench's Table I, built at
# BASE and from the working tree, must print the same bytes. Not
# a CI step, as it needs a base revision: run it on a change that claims to
# move no result, e.g. `make neutral BASE=HEAD~1`.
neutral:
	@test -n "$(BASE)" || { echo "usage: make neutral BASE=<rev>"; exit 1; }
	bash scripts/neutral.sh $(BASE)
