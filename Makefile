# Development targets. `make verify` is the full gate: build, vet, and
# the test suite under the race detector — the detector matters because
# the experiment harness fans simulator machines across goroutines.

GO ?= go

.PHONY: all build test verify fmt-check fuzz-smoke bench benchmark-smoke perf ab tier-smoke checkpoint-smoke scale-smoke

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
# checksum passes): an error or a runnable machine, never a panic; over
# cache operation streams, run on the chunked cache and the flat one it
# replaced, which must agree; and over the front ends, the instruction
# decoder and assembler (arbitrary words and text) and the Mul-T
# compiler (arbitrary source): an error, never a panic. New coverage is
# minimized for at most a second, or a slow input eats the budget.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzOpen -fuzztime 10s -fuzzminimizetime 1s ./internal/snapshot/
	$(GO) test -run xxx -fuzz FuzzRestore -fuzztime 10s -fuzzminimizetime 1s ./internal/sim/
	$(GO) test -run xxx -fuzz FuzzCacheOps -fuzztime 10s -fuzzminimizetime 1s ./internal/cache/
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/isa/
	$(GO) test -run xxx -fuzz FuzzCompile -fuzztime 10s -fuzzminimizetime 1s ./internal/mult/

# The repo benchmark (benchmark/, BENCHMARK.json) is a module of its
# own, so the root ./... patterns do not reach it: vet it and run its
# test (every workload and layer drive at smoke scale, ~3 s).
benchmark-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Every benchmark once: the experiment benchmarks at the root and the
# per-layer microbenchmarks beside their packages (cache hit / write hit
# / refused probe, a sharer-set round inline and in the overflow words,
# the full/empty-aware memory access, the controller
# hit through both of its callers and a delayed reply through its
# outbox, a torus hop / NextEvent / Advance, a calendar add+drain, the
# Snapshot and Restore of 16-, 64- and 256-node images, a 4 MiB
# payload's Seal+Open). One iteration each keeps them from rotting; use
# -benchtime and -count by hand to measure.
bench:
	$(GO) test -bench . -benchtime 1x -run xxx . ./internal/sim/ ./internal/cache/ ./internal/directory/ ./internal/mem/ ./internal/network/ ./internal/calendar/ ./internal/snapshot/

# Measure simulator throughput under each execution tier on the full
# Table 3 grid and a 64-node ALEWIFE run, every run through the grid's
# own run path; writes BENCH_simperf.json. Host allocation and the
# checkpoint round trip are the repo benchmark's (host_alloc_mb, ckpt64).
perf:
	$(GO) run ./cmd/april-bench -sizes paper -perf

# A/B one repo-benchmark workload between PARENT and the working tree:
# PAIRS (even) alternating pairs of benchmark/run.sh runs (each tree builds its
# own binary), then per end-to-end metric both medians, the parent's
# quartiles and the change's win count. Exits 2 when a metric is worse
# than its BENCHMARK.json bound. Use SEED=2 for the held-out seed.
PAIRS ?= 10
SEED ?= 1
ab:
	python3 scripts/ab.py --parent $(PARENT) --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED)

# The Table 3 grid under both execution tiers: the paper grid's
# -stats-json must match between the compiled and reference tiers once
# the host-side blocks (perf, epoch, park) are stripped, since lanes are
# refused and cut back mainly at paper sizes. (The test-size grid is
# held cell by cell to the tier oracle by `go test -run GridTiersAgree
# ./internal/bench/`, and tier names by `go test -run TierOutOfRange
# ./internal/sim/`.) 64-node ALEWIFE queens,
# where lanes run ahead and are cut back, must print the same
# -stats-json under both tiers eager, lazy and with the fault plan
# armed; so must 125-node eager queens, whose node ids fill more than
# one 64-bit word of every id bitset (a fabric horizon later than a real
# event would make the fast-forwarding tier diverge there). SMOKE_DIR
# holds the binaries and the outputs.
SMOKE_DIR ?= /tmp
STRIP_HOST = python3 -c 'import json, sys; rs = json.load(open(sys.argv[1])); \
	[r.pop(k, None) for r in rs for k in ("perf", "epoch", "park")]; \
	json.dump(rs, open(sys.argv[1], "w"), indent=1, sort_keys=True)'
tier-smoke:
	$(GO) build -o $(SMOKE_DIR)/april-bench ./cmd/april-bench
	for t in compiled reference; do \
		$(SMOKE_DIR)/april-bench -sizes paper -tier $$t -stats-json $(SMOKE_DIR)/tier-$$t.json > /dev/null && \
		$(STRIP_HOST) $(SMOKE_DIR)/tier-$$t.json || exit 1; done
	cmp $(SMOKE_DIR)/tier-compiled.json $(SMOKE_DIR)/tier-reference.json
	$(GO) build -o $(SMOKE_DIR)/april ./cmd/april
	for v in eager:"" lazy:-lazy faults:"-faults -fault-seed 2"; do \
		for t in compiled reference; do \
			$(SMOKE_DIR)/april -n 64 -alewife $${v#*:} -tier $$t -stats-json examples/progs/queens.mt \
				> $(SMOKE_DIR)/alewife-$${v%%:*}-$$t.out || exit 1; done; \
		cmp $(SMOKE_DIR)/alewife-$${v%%:*}-compiled.out $(SMOKE_DIR)/alewife-$${v%%:*}-reference.out || exit 1; done
	for t in compiled reference; do \
		$(SMOKE_DIR)/april -n 125 -alewife -mem 1024 -tier $$t -stats-json examples/progs/queens.mt \
			> $(SMOKE_DIR)/alewife125-$$t.out || exit 1; done
	cmp $(SMOKE_DIR)/alewife125-compiled.out $(SMOKE_DIR)/alewife125-reference.out

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

# The paper's 8000-node machine (Section 8) in 4095 MiB, where heap
# chunks are 64 KiB: queens 8 on the compiled tier must answer 92 and
# print the committed -stats-json; a checkpointed copy of the same run,
# restored from its first image, must finish with the same -stats-json
# (Restore derives the same chunk size as New). SMOKE_DIR holds the
# binary, the images and the outputs.
SCALE = $(SMOKE_DIR)/scale8000
SCALE_RUN = -alewife -n 8000 -mem 4095 -stats-json examples/progs/queens.mt
scale-smoke:
	$(GO) build -o $(SMOKE_DIR)/april ./cmd/april
	$(SMOKE_DIR)/april $(SCALE_RUN) > $(SCALE).out
	grep -qx '=> 92' $(SCALE).out
	tail -1 $(SCALE).out | diff - testdata/queens8000.stats.json
	rm -rf $(SCALE)-ckpt
	$(SMOKE_DIR)/april -checkpoint-every 50000 -checkpoint-dir $(SCALE)-ckpt $(SCALE_RUN) > /dev/null
	first="$$(ls $(SCALE)-ckpt/ckpt-*.img | head -1)" && \
	$(SMOKE_DIR)/april -restore "$$first" -stats-json | tail -1 | diff - testdata/queens8000.stats.json
	rm -rf $(SCALE)-ckpt
