# Flex — zero-reserved-power datacenters (ISCA 2021 reproduction).

GO ?= go

.PHONY: all build vet lint lint-json test race cover bench-solver bench-obs bench-smoke pairs loc figures fuzz fuzz-smoke examples replay-smoke slo-smoke fleet-smoke latency-smoke online-smoke ci clean

all: build vet lint test

build:
	$(GO) build ./...

# The second line vets the packages with an amd64 assembly kernel as
# arm64, which compiles their portable Go fallback instead; the third fails
# on any file gofmt would change (testdata included), naming it.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/lp ./internal/milp
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l: $$unformatted"; exit 1; fi

# Project-specific static analysis: the interprocedural flexlint suite —
# clock hygiene, context-budget flow, allocation-free hot paths, lock
# ordering, float equality, lock discipline, flight-recorder emission
# discipline, discarded shed-critical errors, code no binary reaches. See DESIGN.md
# ("Static analysis") and internal/analysis.
lint:
	$(GO) run ./cmd/flexlint ./...

# Same suite, machine-readable findings (what the CI lint job runs).
lint-json:
	$(GO) run ./cmd/flexlint -json ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Records the compressed Figure 13 emulation (one UPS failure and its
# recovery) with the flight recorder and replays it: the replayed
# planning decisions must match the recorded ones exactly (empty diff),
# or flexreplay exits non-zero.
replay-smoke:
	$(GO) run ./cmd/flexsim -experiment fig13 -quick -record /tmp/flex-episode.jsonl
	$(GO) run ./cmd/flexreplay -min-plans 1 /tmp/flex-episode.jsonl

# Runs the compressed Figure 13 emulation with the continuous safety
# auditor attached and asserts the SLO story end to end: health goes
# ready→degraded→ready (never unsafe), the shed budget burns and
# recovers, and every steady-state what-if probe round is clean.
# flexsim exits non-zero if any of that fails.
slo-smoke:
	$(GO) run ./cmd/flexsim -experiment fig13 -quick -slo

# Runs the 10-room sharded fleet emulation and asserts the fleet smoke
# criteria: every shard ready in the final snapshot, aggregate stranded
# power equal to the sum of per-room Eq. 5, the failed room shed within
# the 10s budget, zero cross-shard drops. flexsim exits non-zero on any
# violation.
fleet-smoke:
	$(GO) run ./cmd/flexsim -experiment fleet -rooms 10

# Runs the 10-room fleet emulation with latency attribution asserted
# (flexsim -latency): the failed room's overdraw must surface as a
# stitched per-episode waterfall whose stage durations
# tile the episode span, the waterfall must reconcile with the measured
# detect→shed latency, every stage's exact maximum must sit inside its
# carve of the 10s budget (slo.StageBudgets), and each maximum must
# resolve to a flight-recorder event. flexsim exits non-zero on any
# violation.
latency-smoke:
	$(GO) run ./cmd/flexsim -experiment fleet -rooms 10 -latency

# Runs the online-placement acceptance check (ISSUE 9) on the §V-C
# emulation trace: the online admitter must produce a safe placement
# (zero Eq. 2 / Eq. 4 violations) whose stranded power is within 10
# percentage points of the Flex-Offline optimum. Re-solves run inline, so
# the check is deterministic; flexplace exits non-zero on any violation.
online-smoke:
	$(GO) run ./cmd/flexplace -smoke

# What CI runs (.github/workflows/ci.yml): the full gate, the five
# smokes, every example program (each roots part of the facade), one
# second of every benchmark workload at std scale, ten seconds of each of the eleven fuzzers, the whole tree under the
# race detector, the emulator's parallel tick three more times under it (the
# fleet's phases split over every core, the noise producer, the cached
# truth, a trip taking its UPS out inside the parallel observe), a whole rack poll
# pumped into its view three more times under it (the crew's barrier alone
# orders the serial ingest before the parallel pump), two primaries stepping on one rack manager's record of what is
# shed while a reader holds a list it was handed three more times under it,
# the branch-and-bound
# workers three more times under it (each builds its heuristic candidates
# in a Packing of its own), and the compressed Figure 13 emulation printing
# its metrics summary.
ci: build vet lint test replay-smoke slo-smoke fleet-smoke latency-smoke online-smoke examples bench-smoke fuzz-smoke
	$(GO) test -race ./...
	$(GO) test -race -count=3 -run 'RunFleet|Noise|Refresh|Trip' ./internal/emu
	$(GO) test -race -count=3 -run 'PumpDrainsPollWhole' ./internal/fleet
	$(GO) test -race -count=3 -run 'TestRestartedPrimary|PrimariesShareRecord' ./internal/controller
	$(GO) test -race -count=3 -run 'AcrossWorkers|ParallelMatchesSerial|ConcurrentIncumbent' ./internal/milp
	$(GO) run ./cmd/flexsim -experiment fig13 -quick -metrics

cover:
	$(GO) test -cover ./...

# Records the solver-scaling baseline (BenchmarkSolverScaling: the
# branch-and-bound engine at 1 worker — the "serial" row — and at 2/4/8 on
# the cold batch-placement ILP, nodes/s and objective reached; the
# objective is the same in every row and above zero). Inspect the
# speedups with:
#   $(GO) run ./cmd/benchjson -speedup BENCH_solver.json
bench-solver:
	$(GO) test -run '^$$' -bench BenchmarkSolverScaling -benchtime 3x . | $(GO) run ./cmd/benchjson -o BENCH_solver.json
	@echo wrote BENCH_solver.json

# Records the observability hot-path baseline: tsdb append and sampler-tick
# and SLO audit-tick/probe benchmarks, what a probe round and an episode's P95
# are made of (BenchmarkPlan: Algorithm 1 one-shot and prepared on an
# emulation-sized room; BenchmarkPercentile at 1e5 samples, selected,
# streamed through the emulator's stats.Tail and sorted), the fleet's
# transport (BenchmarkPublishRecvBatch, BenchmarkUpdateBatch plain and on a
# recorded view: one 275-rack poll per op, 0 allocs/op), then the fully
# instrumented emulation episode they add up to (BenchmarkRunInstrumented:
# us/tick and B/tick; benchjson tags each record with its package). The
# Append, SamplerTick, AuditTick and Plan/prepared rows must stay at
# 0 allocs/op — the first three run on the emulation tick, the last four
# times a probe round.
bench-obs:
	{ $(GO) test -run '^$$' -bench . -benchmem -benchtime 100x ./internal/obs/tsdb/ ./internal/obs/slo/ ./internal/controller/ ./internal/stats/ ./internal/telemetry/ && \
	  $(GO) test -run '^$$' -bench BenchmarkRunInstrumented -benchtime 5x ./internal/emu/ ; } | $(GO) run ./cmd/benchjson -o BENCH_obs.json
	@echo wrote BENCH_obs.json

# Runs each of the four flexbench workloads for one second at std scale,
# through the benchmark's own entry point, and fails on the first run that
# exits non-zero. `go test ./bench` runs only -scale tiny, so this is where
# a failure only the std scale meets (a 24-minute episode outgrowing the
# recorder ring, a repetition that fails an operation) shows.
BENCH_WORKLOADS = fleet-failover room-episode placement-sweep admission-churn
bench-smoke:
	@for w in $(BENCH_WORKLOADS); do \
		echo "bench-smoke: $$w"; \
		bash bench/run.sh --workload $$w --seconds 1 --trace 0 || { echo "bench-smoke: $$w exited non-zero"; exit 1; }; \
	done

# Alternated parent/change pairs of one flexbench workload, the comparison
# CHANGES.md reports for every performance claim: one row per pair, both
# medians, the parent's interquartile range, wins; non-zero if the two
# sides' fingerprints differ. RUN_SECONDS is flexbench's -seconds, which
# sets the repetitions a run makes (fleet-failover at seed 1 fails an
# operation from 36 on). See scripts/pairs.sh.
#   make pairs PARENT=HEAD~1 WORKLOAD=room-episode SEED=7 PAIRS=10 RUN_SECONDS=40
SEED ?= 1
PAIRS ?= 10
RUN_SECONDS ?= 10
pairs:
	bash scripts/pairs.sh $(PARENT) $(WORKLOAD) $(SEED) $(PAIRS) $(RUN_SECONDS)

# Non-test Go code lines per package (neither blank nor comment-only,
# testdata/ excluded); with BASE=<rev>, base/now/delta for every package
# that changed and the totals. See scripts/loc.sh.
#   make loc BASE=HEAD~3
loc:
	bash scripts/loc.sh $(BASE)

# Regenerates every figure/result of the paper's evaluation.
figures:
	$(GO) test -bench=. -benchmem ./...

# The eleven native fuzz targets, FUZZTIME each: trace parsing, the impact
# function, the offline/online contract (Algorithm 1 against placements
# that pass Validate), the safety ledger, the room occupancy, the prepared
# Algorithm 1, the admitter's scenario scorer and the broker's subscriber
# queues against their from-scratch references, the 0/1 packing search
# against exhaustive enumeration, the LP's warm re-solve against a cold
# solve, and the bounded percentile tail against a percentile of every
# value.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzReadTrace -fuzztime=$(FUZZTIME) -run=Fuzz .
	$(GO) test -fuzz=FuzzImpactFunction -fuzztime=$(FUZZTIME) -run=Fuzz .
	$(GO) test -fuzz=FuzzContractHolds -fuzztime=$(FUZZTIME) -run=Fuzz .
	$(GO) test -fuzz=FuzzLedgerMatchesLoadFlow -fuzztime=$(FUZZTIME) -run=Fuzz ./internal/power
	$(GO) test -fuzz=FuzzOccupancyMatchesScratch -fuzztime=$(FUZZTIME) -run=Fuzz ./internal/placement/online
	$(GO) test -fuzz=FuzzMILPMatchesBruteForce -fuzztime=$(FUZZTIME) -run=Fuzz ./internal/milp
	$(GO) test -fuzz=FuzzPlanMatchesReference -fuzztime=$(FUZZTIME) -run=Fuzz ./internal/controller
	$(GO) test -fuzz=FuzzScoreMatchesReference -fuzztime=$(FUZZTIME) -run=Fuzz ./internal/placement/online
	$(GO) test -fuzz=FuzzQueueMatchesReference -fuzztime=$(FUZZTIME) -run=Fuzz ./internal/telemetry
	$(GO) test -fuzz=FuzzWarmMatchesCold -fuzztime=$(FUZZTIME) -run=Fuzz ./internal/lp
	$(GO) test -fuzz=FuzzTailMatchesPercentile -fuzztime=$(FUZZTIME) -run=Fuzz ./internal/stats

# The same eleven legs at ten seconds each: what CI can afford on every push.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# Runs every program under examples/ (quickstart is README's Quickstart
# block): they and cmd/ are the only callers the facade's exports have.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/capacityplanning
	$(GO) run ./examples/costsavings
	$(GO) run ./examples/yearinthelife
	$(GO) run ./examples/telemetrypipeline
	$(GO) run ./examples/failover

clean:
	$(GO) clean -testcache
