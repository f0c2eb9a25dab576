GO ?= go

# Perf-gate knobs: the checked-in baseline to compare against, and the
# relative slowdown allowed before bench-quick fails. The wall-time
# tolerance is deliberately wide (shared/virtualized runners jitter by tens
# of percent); the gate's load-bearing checks — allocation counts and
# bit-exact event/summary determinism at fixed seed — are timing-immune,
# and a real hot-path regression (e.g. reintroducing per-event boxing)
# multiplies allocs/op far past any tolerance.
BENCH_BASELINE ?= BENCH_2026-08-08.json
BENCH_TOLERANCE ?= 0.60

# Coverage gate: `make cover` fails when total statement coverage drops
# below the floor. Measured 84.4% when the floor was set; the slack keeps
# honest refactors from fighting the gate while still catching a PR that
# lands a subsystem with no tests.
COVER_FLOOR ?= 80.0
COVER_PROFILE ?= coverage.out

# Scratch dir for the trace round-trip smoke test.
TRACE_SMOKE_DIR ?= .trace-smoke

.PHONY: build test vet race bench bench-quick bench-baseline perfbench-check burst-quick stream-quick plan-quick lint lint-model cover trace-smoke verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-quick measures the quick-scale evaluation sweep and fails on
# regression against the checked-in baseline: slowdown/alloc growth past
# BENCH_TOLERANCE, or any determinism drift at fixed seed.
bench-quick:
	$(GO) run ./cmd/plasma-bench -compare $(BENCH_BASELINE) -tolerance $(BENCH_TOLERANCE)

# bench-baseline regenerates the checked-in baseline (run on a quiet
# machine; commit the refreshed JSON alongside the change justifying it).
bench-baseline:
	$(GO) run ./cmd/plasma-bench -json -o $(BENCH_BASELINE)

# perfbench-check covers the nested perfbench module, which the root
# module's ./... patterns (test, vet, lint) never reach: vet and test it in
# its own module, then run the determinism linter over it. Building it also
# proves it still compiles against the simulator packages it drives.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .
	$(GO) run ./cmd/plasma-lint -Werror ./perfbench/...

# burst-quick runs the burst/failure robustness family at quick sizes: the
# flash-crowd sweep across the provisioning spectrum, the chaos-composed
# flash-during-GEM-crash run, and the burst shape/determinism tests.
burst-quick:
	$(GO) run ./cmd/plasma-sim burst_flash burst_chaos
	$(GO) test -run 'TestBurst' ./internal/experiments/

# stream-quick runs the windowed streaming family at quick sizes: the
# skew-shift recovery race against the Elasticutor-style repartitioner, the
# chaos-composed shift, and the stream acceptance/shape/determinism tests
# (including the pinned seed-1 recovery numbers).
stream-quick:
	$(GO) run ./cmd/plasma-sim stream_skew stream_chaos
	$(GO) test -run 'TestStream' ./internal/experiments/

# plan-quick runs the batched-planner family at quick sizes: both plan_*
# races (batch multi-resource round vs the legacy greedy, DESIGN.md §11),
# the planner unit/regression suite (band-math fixes, batch packing,
# affinity anchoring, transfer pipelining), and the decision-throughput
# benchmark at its quick scale.
plan-quick:
	$(GO) run ./cmd/plasma-sim plan_pagerank plan_halo
	$(GO) test -run 'TestPlan|TestBatch|TestGroupAnchor|TestDecisionBench|TestXfer' ./internal/emr/ ./internal/experiments/ ./internal/actor/
	$(GO) test -bench 'PlannerDecision/64k' -benchtime 1x -run '^$$' ./internal/emr/

# lint runs the determinism linter over all simulator and CLI code; any
# wall-clock read, global math/rand use, or unsorted map-order output fails
# (warnings included, via -Werror).
lint:
	$(GO) run ./cmd/plasma-lint -Werror ./internal/... ./cmd/...

# lint-model runs the offline policy model checker: the model package's
# corpus verdicts and the shipped-policy gate (every internal/apps and
# examples/ policy must be EPL2xx-clean), then the CLI end to end with
# -model -Werror over the clean corpus policies (any new model finding —
# oscillation, overload dead state, pool dead end, assert violation —
# fails the build).
lint-model:
	$(GO) test -count=1 ./internal/lint/model/
	$(GO) run ./cmd/plasma-lint -model -Werror internal/lint/testdata/clean_*.epl internal/lint/testdata/assert_ok.epl

# cover measures total statement coverage and fails below COVER_FLOOR.
# CI uploads $(COVER_PROFILE) as an artifact for inspection.
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) ./...
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' || \
		{ echo "FAIL: coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# trace-smoke round-trips the decision tracer end to end: a quick traced
# experiment run twice at the same seed must produce byte-identical JSONL,
# summarize and diff must accept it, and the Chrome export must render.
trace-smoke:
	@rm -rf $(TRACE_SMOKE_DIR) && mkdir -p $(TRACE_SMOKE_DIR)
	$(GO) run ./cmd/plasma-sim -trace $(TRACE_SMOKE_DIR)/a.jsonl fig5 > /dev/null
	$(GO) run ./cmd/plasma-sim -trace $(TRACE_SMOKE_DIR)/b.jsonl fig5 > /dev/null
	cmp $(TRACE_SMOKE_DIR)/a.jsonl $(TRACE_SMOKE_DIR)/b.jsonl
	$(GO) run ./cmd/plasma-trace summarize $(TRACE_SMOKE_DIR)/a.jsonl | grep -q '^records:'
	$(GO) run ./cmd/plasma-trace diff $(TRACE_SMOKE_DIR)/a.jsonl $(TRACE_SMOKE_DIR)/b.jsonl > /dev/null
	$(GO) run ./cmd/plasma-trace chrome $(TRACE_SMOKE_DIR)/a.jsonl > $(TRACE_SMOKE_DIR)/a.trace.json
	@rm -rf $(TRACE_SMOKE_DIR)
	@echo "trace-smoke OK: same-seed traces byte-identical, tooling round-trips"

# verify is the pre-merge gate: everything compiles, vet is clean, the full
# suite passes under the race detector, the determinism lint is clean, the
# policy model checker passes every shipped policy, the quick-scale sweep
# shows no perf regression or determinism drift against the checked-in
# bench baseline, and the decision tracer round-trips.
verify: build vet race lint lint-model bench-quick trace-smoke
