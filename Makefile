# Development targets. `make verify` is the full gate: build, vet, and
# the test suite under the race detector — the detector matters because
# the experiment harness fans simulator machines across goroutines.

GO ?= go

.PHONY: all build test verify fmt-check fuzz-smoke bench benchmark-smoke perf tier-smoke checkpoint-smoke

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

verify: fmt-check benchmark-smoke
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./...

fmt-check:
	test -z "$$(gofmt -l .)"

# Ten seconds each of native fuzzing over the machine-image container
# (arbitrary bytes) and sim.Restore (mutated payloads, re-sealed so the
# checksum passes): an error or a runnable machine, never a panic; and
# over cache operation streams, run on the chunked cache and the flat
# one it replaced, which must agree. New coverage is minimized for at
# most a second, or a slow input eats the budget.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzOpen -fuzztime 10s -fuzzminimizetime 1s ./internal/snapshot/
	$(GO) test -run xxx -fuzz FuzzRestore -fuzztime 10s -fuzzminimizetime 1s ./internal/sim/
	$(GO) test -run xxx -fuzz FuzzCacheOps -fuzztime 10s -fuzzminimizetime 1s ./internal/cache/

# The repo benchmark (benchmark/, BENCHMARK.json) is a module of its
# own, so the root ./... patterns do not reach it: vet it and run its
# test (every workload and layer drive at smoke scale, ~3 s).
benchmark-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Every benchmark once: the experiment benchmarks at the root and the
# per-layer microbenchmarks beside their packages (cache hit / write hit
# / refused probe, the full/empty-aware memory access, the controller
# hit through both of its callers and a delayed reply through its
# outbox, a torus hop / NextEvent / Advance, a calendar add+drain, a
# 64-node image's Snapshot and Restore, a 4 MiB payload's Seal+Open). One
# iteration each keeps them from rotting; use -benchtime and -count by
# hand to measure.
bench:
	$(GO) test -bench . -benchtime 1x -run xxx . ./internal/sim/ ./internal/cache/ ./internal/mem/ ./internal/network/ ./internal/calendar/ ./internal/snapshot/

# Measure simulator throughput under each execution tier on the full
# Table 3 grid and a 64-node ALEWIFE run; writes BENCH_simperf.json.
perf:
	$(GO) run ./cmd/april-bench -sizes paper -perf

# The Table 3 grid under both execution tiers: the small grid's two
# outputs must be byte-identical; the paper grid's -stats-json must match
# between the compiled and reference tiers once the host-side blocks
# (perf, epoch, park) are stripped, since long epoch chunks and lanes
# running past a stop occur mainly at paper sizes; and an unknown tier,
# or the deleted predecode tier, must be refused. SMOKE_DIR holds the
# binary and the outputs.
SMOKE_DIR ?= /tmp
STRIP_HOST = python3 -c 'import json, sys; rs = json.load(open(sys.argv[1])); \
	[r.pop(k, None) for r in rs for k in ("perf", "epoch", "park")]; \
	json.dump(rs, open(sys.argv[1], "w"), indent=1, sort_keys=True)'
tier-smoke:
	$(GO) build -o $(SMOKE_DIR)/april-bench ./cmd/april-bench
	for t in compiled reference; do \
		$(SMOKE_DIR)/april-bench -sizes test -tier $$t > $(SMOKE_DIR)/tier-$$t.out || exit 1; done
	cmp $(SMOKE_DIR)/tier-compiled.out $(SMOKE_DIR)/tier-reference.out
	for t in compiled reference; do \
		$(SMOKE_DIR)/april-bench -sizes paper -tier $$t -stats-json $(SMOKE_DIR)/tier-$$t.json > /dev/null && \
		$(STRIP_HOST) $(SMOKE_DIR)/tier-$$t.json || exit 1; done
	cmp $(SMOKE_DIR)/tier-compiled.json $(SMOKE_DIR)/tier-reference.json
	! $(SMOKE_DIR)/april-bench -sizes test -tier fast 2>/dev/null
	! $(SMOKE_DIR)/april-bench -sizes test -tier predecode 2>/dev/null

# Quick gate for checkpoint/restore, and CI's one definition of it:
# kill a checkpointed run as soon as its first image lands (images are
# written and renamed atomically, so a visible one is whole), restore
# the newest image under the default tier and under the reference tier
# with checkers on, and require bit-identical simulated stats from both;
# then sabotage a run at a known cycle and require the bisector to pin
# it exactly. The snapshot tests themselves run under go test (and
# -race in CI's race job). SMOKE_DIR holds the binary, the images and
# the outputs.
CKPT = $(SMOKE_DIR)/ckpt
checkpoint-smoke:
	$(GO) build -o $(SMOKE_DIR)/april ./cmd/april
	$(SMOKE_DIR)/april -n 64 -alewife -stats-json examples/progs/queens.mt | tail -1 > $(CKPT)-clean.json
	rm -rf $(CKPT)-smoke
	$(SMOKE_DIR)/april -n 64 -alewife -checkpoint-every 20000 \
		-checkpoint-dir $(CKPT)-smoke -stats-json examples/progs/queens.mt & \
	pid=$$!; for i in $$(seq 1 300); do \
		ls $(CKPT)-smoke/ckpt-*.img >/dev/null 2>&1 && break; sleep 0.1; done; \
	kill -KILL $$pid 2>/dev/null || true
	ls $(CKPT)-smoke/
	newest="$$(ls $(CKPT)-smoke/ckpt-*.img | tail -1)" && \
	$(SMOKE_DIR)/april -restore "$$newest" -stats-json | tail -1 | diff - $(CKPT)-clean.json && \
	$(SMOKE_DIR)/april -restore "$$newest" -tier reference -check -stats-json \
		| tail -1 | diff - $(CKPT)-clean.json
	rm -rf $(CKPT)-bisect
	$(SMOKE_DIR)/april -n 8 -alewife -sabotage 150000 -max-cycles 250000 -checkpoint-every 20000 \
		-checkpoint-keep 20 -checkpoint-dir $(CKPT)-bisect examples/progs/queens.mt || true
	$(SMOKE_DIR)/april -bisect $(CKPT)-bisect | tee $(CKPT)-bisect.out
	grep -q '^first violating cycle: 150000$$' $(CKPT)-bisect.out
	grep -q '^clean through cycle:   149999$$' $(CKPT)-bisect.out
