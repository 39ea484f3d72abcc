# Orion development targets. `make check` is the full gate: formatting,
# vet, build, tests, and the race detector on the concurrency-heavy
# packages.

GO ?= go

.PHONY: check fmt vet lint build test loc benchmark-module race chaos soak bench-smoke exec-gate vm-gate resident-gate trace-smoke adapt-smoke vet-examples fuzz golden-plans golden-plans-check

check: fmt vet lint build test benchmark-module race chaos bench-smoke exec-gate resident-gate trace-smoke adapt-smoke vet-examples golden-plans-check

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Project-specific analyzers (internal/lint): wall-clock reads in
# deterministic packages, unended trace spans, retained Msg payloads.
lint:
	$(GO) run ./cmd/orion-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The two line counts the north star tracks: Go outside benchmark/,
# non-test and test.
loc:
	@printf 'non-test %s\ntest     %s\n' \
		"$$(find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' | xargs cat | wc -l)" \
		"$$(find . -name '*.go' -not -path './benchmark/*' -name '*_test.go' | xargs cat | wc -l)"

# The end-to-end benchmark harness (BENCHMARK.json, benchmark/README.md)
# is its own module that reaches the internal packages through a replace
# directive, so the root ./... never sees it — this is the only guard
# that an internal API edit keeps the harness compiling.
benchmark-module:
	(cd benchmark && $(GO) vet ./... && $(GO) test ./...)

# The runtime, driver, engine, observability, and kernel-compilation
# packages exercise executors, rotation pipelines, trace buffers, and
# the simulator concurrently — run them under the race detector.
race:
	$(GO) test -race ./internal/runtime/... ./internal/driver ./internal/engine \
		./internal/dslkernel/... ./internal/obs

# The seeded fault-injection suite: scripted connection failures at
# chosen loop clocks, recovery from coordinated checkpoints, bitwise
# comparison against fault-free runs, and a worker blackholed between
# loops failing every master wait and every driver fetch (recovered with
# a checkpoint directory, ORN301 naming the arrays without) — under the
# race detector.
chaos:
	$(GO) test -race -run 'Chaos' ./internal/runtime ./internal/driver

# The long randomized chaos soak: MF and LDA under seeded random fault
# schedules mixing all seven fault kinds (sever, delay, corrupt,
# truncate, duplicate, reorder, and checkpoint-time loss), every
# schedule asserted bitwise-identical to its fault-free run. A bounded
# two-seed variant runs inside `test` and `chaos`; this target unlocks
# the full seed sweep.
soak:
	ORION_SOAK=1 $(GO) test -race -run 'ChaosSoak' -v ./internal/driver

# One iteration of every benchmark — catches bit-rotted benchmark code
# without paying for real measurement. internal/bench is not here: its
# benchmarks are the live gates below, which exec-gate, vm-gate and
# resident-gate run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x \
		./internal/lang ./internal/dsm ./internal/runtime

# Live ratio gates: an MF iteration inside a real 1-worker executor
# against the same bytecode bound directly to the arrays, both timed in
# this run (lower decile of 20 alternating rounds); fails above 2.5x.
# The served leg does the same for loops whose model array is a
# parameter-server array: W-only 1D MF with H served, and buffered SLR.
exec-gate:
	$(GO) test -run '^$$' -bench '(Executor|Served)VsDirectKernel$$' -benchtime 1x ./internal/bench

# The MF and LDA bodies on the VM against the same bodies written as Go
# loops over a copy of the same storage, bitwise-checked; MF fails above
# 3.5x, LDA (its topic loop lane-wise) above 4.5x. Not part of `check`:
# on a 2-vCPU host MF reads 3.1-3.4x when the host is quiet and 3.7-4.2x
# when it is contended, so its bar sits inside its spread.
vm-gate:
	$(GO) test -run '^$$' -bench 'VMVsGoKernel$$' -benchtime 1x ./internal/bench

# Live ratio gate on residency (iteration space and model arrays): six
# single-pass Session.ParallelFor calls against a pass of one Passes(5)
# call, timed in this run on two workers, an MF leg and an LDA leg (a
# sparse space-local array the driver never reads); fails when the
# fastest single-pass call costs more than 1.15x a multi-pass pass (3.1x
# when every call re-shipped the ratings; the bar was 1.5x while every
# call still distributed and gathered the model arrays).
resident-gate:
	$(GO) test -run '^$$' -bench 'ResidentCallVsMultiPass$$' -benchtime 1x ./internal/bench

# End-to-end flight-recorder smoke: a 2-worker MF run over real TCP
# sockets with tracing, report export, and the flight log on, then
# orion-trace over the artifacts — analyze exits non-zero when the
# merged trace carries no spans or the report no loops.
trace-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/orion-run -engine dsl -app mf -workers 2 -passes 2 \
		-transport tcp -trace "$$dir/trace.json" \
		-report-json "$$dir/report.json" -flightrec "$$dir/flight.jsonl" && \
	$(GO) run ./cmd/orion-trace analyze -report "$$dir/report.json" "$$dir/trace.json" && \
	$(GO) run ./cmd/orion-trace top -n 5 "$$dir/trace.json" && \
	test -s "$$dir/flight.jsonl"

# Adaptive re-planning smoke: a synthetic straggler (worker 0 padded
# 200µs per iteration) must trip a mid-run recut that cuts the measured
# compute-skew index by >= 30% by the last boundary — orion-run exits
# non-zero otherwise.
adapt-smoke:
	$(GO) run ./cmd/orion-run -engine dsl -app mf -workers 3 -passes 5 \
		-adapt -adapt-skew 2 -skew-demo 200 -adapt-assert-drop 0.3

# Vet every shipped example program; unsafe.orion is expected to fail.
vet-examples:
	$(GO) run ./cmd/orion-vet examples/quickstart/mf.orion \
		examples/slr_prefetch/slr.orion examples/wavefront/stencil.orion \
		examples/lda_dsl/lda.orion examples/vet_demo/fixed.orion \
		examples/strided/interleave.orion examples/guarded/tile.orion
	! $(GO) run ./cmd/orion-vet examples/vet_demo/unsafe.orion

# Regenerate the committed golden plan artifacts (one per examples/
# program) after an intentional planning or serialization change.
golden-plans:
	ORION_UPDATE_GOLDEN=1 $(GO) test ./internal/plan -run TestGolden

# Gate: fail when the compiled plans drift from their committed goldens.
golden-plans-check:
	$(GO) test ./internal/plan -run TestGolden

# Short fuzzing sessions over the DSL front end, the plan-artifact
# decoders, the symbolic dependence tier (soundness vs the brute-force
# oracle), the three-way interp/closure/VM execution differential, the
# checker against the executors' compiler (ORN018 exactly when they
# refuse a loop, and every planned loop's prefetch slice compiles), and
# the wire-frame decoder (hostile header claims must condemn the link,
# never crash or over-allocate).
fuzz:
	$(GO) test ./internal/lang -fuzz 'FuzzParse$$' -fuzztime 30s
	$(GO) test ./internal/lang -fuzz FuzzParseProgram -fuzztime 30s
	$(GO) test ./internal/plan -fuzz FuzzDecodeArtifact -fuzztime 30s
	$(GO) test ./internal/dep -fuzz FuzzRangeAnalysis -fuzztime 30s
	$(GO) test ./internal/lang/vm -fuzz FuzzExecDifferential -fuzztime 30s
	$(GO) test ./internal/dslkernel -fuzz FuzzCheckAgreesWithCompile -fuzztime 30s
	$(GO) test ./internal/runtime -fuzz FuzzDecodeFrame -fuzztime 30s
