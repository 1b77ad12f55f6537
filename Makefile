# Developer entry points. `make verify` is the tier-1 gate CI runs.

GO ?= go

.PHONY: verify fmt vet build test bench bench-layers figures lint race clean detlint detlint-report determinism-smoke bench-json bench-smoke bench-compare bench-baseline chaos-smoke rebalance-smoke lincheck-smoke lincheck-sweep scale-smoke trace-smoke

verify: fmt vet build test

# lint is the one-command static gate: go vet, staticcheck (when available —
# CI installs it, locally it is optional), and the repo's own determinism
# analyzers (detlint).
lint: vet detlint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet + detlint only"; \
	fi

# detlint runs the determinism/protocol analyzer suite (internal/detlint)
# over the whole tree through the vet driver. The build must be clean:
# every diagnostic is either fixed or carries a //detlint:ignore with a
# written reason.
detlint:
	$(GO) build -o bin/detlint ./cmd/detlint
	$(GO) vet -vettool=$(CURDIR)/bin/detlint ./...

# detlint-report prints the suppression inventory — every //detlint:
# directive with its location and written reason — and fails if any
# directive is malformed or reason-less. CI runs it in the detlint job so
# an unjustified suppression cannot land.
detlint-report:
	$(GO) build -o bin/detlint ./cmd/detlint
	./bin/detlint -report .

# determinism-smoke is the end-to-end meta-check behind the static analyzers:
# two same-seed fsbench runs with wall-clock stamping off must serialize to
# byte-identical JSON.
determinism-smoke:
	$(GO) run ./cmd/fsbench -fig 12a -scale tiny -format json -stamp=false -out det1.json
	$(GO) run ./cmd/fsbench -fig 12a -scale tiny -format json -stamp=false -out det2.json
	cmp det1.json det2.json
	@rm -f det1.json det2.json
	@echo "determinism-smoke: byte-identical"

# trace-smoke gates the observability invariant: two same-seed fsbench runs
# with -trace on must write byte-identical trace files AND byte-identical
# bench JSON (which now embeds the per-figure metrics deltas), and the trace
# must parse and pass the span-tree shape check (fsctl trace -validate).
trace-smoke:
	$(GO) run ./cmd/fsbench -fig 12a -scale tiny -format json -stamp=false -trace trace1.json -out tbench1.json
	$(GO) run ./cmd/fsbench -fig 12a -scale tiny -format json -stamp=false -trace trace2.json -out tbench2.json
	cmp trace1.json trace2.json
	cmp tbench1.json tbench2.json
	$(GO) run ./cmd/fsctl trace -validate trace1.json
	@rm -f trace1.json trace2.json tbench1.json tbench2.json
	@echo "trace-smoke: byte-identical and well-shaped"

# race proves what detlint's rawgo can only forbid: the tree has no host
# concurrency (one runtime, one runnable process, no sync or sync/atomic in
# product code), so the race detector must stay silent with zero mutexes.
race:
	$(GO) test -race ./...

# clean removes exactly the build, test and smoke products .gitignore lists.
clean:
	rm -rf bin .bench_build benchmark/out
	rm -f bench.json chaos.json lincheck.json rebalance.json scale.json \
		det1.json det2.json trace-compare.json trace-baseline.json \
		trace1.json trace2.json tbench1.json tbench2.json
	find . -path ./vendor -prune -o -type f \( -name '*.test' -o -name '*.prof' \) -exec rm -f {} +

# bench-json regenerates the CI smoke artifact locally.
bench-json:
	$(GO) run ./cmd/fsbench -fig 12a,14 -scale tiny -format json -out bench.json
	$(GO) run ./cmd/fsbench -validate bench.json

# bench-smoke mirrors CI's bench-smoke + scale-smoke jobs locally: generate,
# schema-validate, same-seed self-compare (determinism + allocation noise
# bound), then gate everything against the committed baseline trajectory.
bench-smoke:
	$(GO) run ./cmd/fsbench -fig 12a,14,data -scale tiny -format json -out bench.json
	$(GO) run ./cmd/fsbench -validate bench.json
	$(GO) run ./cmd/fsbench -fig 12a,14,data -scale tiny -compare bench.json
	$(MAKE) scale-smoke
	$(MAKE) bench-compare

# scale-smoke runs the tiny two-cell (1e2/1e3-client) scale figure, validates
# the schema, and self-compares a same-seed re-run: rows, counters and the
# allocator columns must reproduce.
scale-smoke:
	$(GO) run ./cmd/fsbench -fig scale -scale tiny -format json -out scale.json
	$(GO) run ./cmd/fsbench -validate scale.json
	$(GO) run ./cmd/fsbench -fig scale -scale tiny -compare scale.json

# bench-compare gates the current tree against the checked-in trajectory
# (bench/baseline.json): simulated-time cells, deterministic counters, table
# shape (added/removed rows), and the bytes/op / allocs/op allocation columns
# must match the committed run, so regressions show up against history, not
# just against a self-compare. Refresh the baseline with bench-baseline when
# a change legitimately moves the numbers (and say why in the commit).
# Both baseline targets run with -trace so the per-figure metrics deltas are
# recorded in (and gated against) the committed trajectory; the trace file
# itself is a byproduct and discarded.
# GATED_FIGS is the one list of figures in the committed trajectory.
GATED_FIGS = 12a,14,chaos,rebalance,data,lincheck,scale,recovery

bench-compare:
	$(GO) run ./cmd/fsbench -fig $(GATED_FIGS) -scale tiny -trace trace-compare.json -compare bench/baseline.json
	@rm -f trace-compare.json

bench-baseline:
	$(GO) run ./cmd/fsbench -fig $(GATED_FIGS) -scale tiny -trace trace-baseline.json -format json -out bench/baseline.json
	$(GO) run ./cmd/fsbench -validate bench/baseline.json
	@rm -f trace-baseline.json

# chaos-smoke runs the fault-plan availability harness (metadata AND
# data-fault plans — the cluster deploys a replicated data plane) twice with
# one seed: the checker must report zero invariant violations (in particular
# no lost acked content write under <= r-1 data-node failures), and the two
# runs must produce identical rows and op/packet counters (byte-level
# determinism).
chaos-smoke:
	$(GO) run ./cmd/fsbench -fig chaos -scale tiny -seed 7 -format json -out chaos.json
	$(GO) run ./cmd/fsbench -fig chaos -scale tiny -seed 7 -compare chaos.json

# rebalance-smoke runs the live-migration availability harness twice with one
# seed: run 1 fails if any pure-migration window with traffic has zero
# successful ops (stop-the-world regression), if a plan migrates nothing, or
# on any checker violation; run 2 re-generates and diffs cell-by-cell with
# counter checking so any nondeterminism fails too.
rebalance-smoke:
	$(GO) run ./cmd/fsbench -fig rebalance -scale tiny -seed 7 -format json -out rebalance.json
	$(GO) run ./cmd/fsbench -fig rebalance -scale tiny -seed 7 -compare rebalance.json

# lincheck-smoke runs the linearizability + differential-model checker over a
# bounded seed range (sequential diffs vs the baseline, concurrent histories
# fault-free and across the fault-plan catalog) twice with one seed: run 1
# fails on any divergence or non-linearizable history (the figure panics with
# a minimized counterexample), run 2 re-generates and diffs cell-by-cell with
# counter checking so any nondeterminism fails too.
lincheck-smoke:
	$(GO) run ./cmd/fsbench -fig lincheck -scale tiny -seed 7 -format json -out lincheck.json
	$(GO) run ./cmd/fsbench -fig lincheck -scale tiny -seed 7 -compare lincheck.json

# lincheck-sweep is the long-form acceptance sweep: 64 seeds through every
# lincheck test mode (go test entry point).
lincheck-sweep:
	LINCHECK_SEEDS=64 $(GO) test ./internal/lincheck/ -run 'TestSweep' -v

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem

# bench-layers runs the per-layer Go microbenchmarks (ROADMAP 1c): the bare
# simulator (handoff, send, timer), the change-log (snapshot, compaction), the
# key and inode codecs, the kv store, the client's cached path resolution, the
# server's durable-record encoders and its recovery (BenchmarkRecover).
bench-layers:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/env ./internal/core ./internal/kv ./internal/client ./internal/server

figures:
	$(GO) run ./cmd/fsbench -fig all -scale quick
