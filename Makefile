# Developer entry points. `make verify` is the tier-1 gate CI runs.

GO ?= go

.PHONY: verify fmt vet build test bench bench-layers figures lint race clean detlint detlint-report bench-compare bench-baseline sweep-wide

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

# detlint is the static gate, and tier-1 already runs it (`go test ./...`):
# cmd/detlint's TestVetTree runs the determinism/protocol analyzer suite
# (internal/detlint) over the whole tree through `go vet` and requires
# it clean — every diagnostic is either fixed or carries a //detlint:ignore
# with a written reason — and requires a seeded broken package to fail.
detlint:
	$(GO) test -count=1 -run TestVetTree -v ./cmd/detlint

# detlint-report prints the suppression inventory — every //detlint:
# directive with its location and written reason — and fails if any
# directive is malformed or reason-less. Tier-1's TestReportOverRepo holds
# the tree to the same check.
detlint-report:
	$(GO) run ./cmd/detlint -report .

# race proves what detlint's hostapi can only forbid: the tree has no host
# concurrency (one runtime, one runnable process, no sync or sync/atomic in
# product code), so the race detector must stay silent with zero mutexes.
race:
	$(GO) test -race ./...

# clean removes exactly the build and test products .gitignore lists.
clean:
	rm -rf bin .bench_build benchmark/out
	find . -path ./vendor -prune -o -type f \( -name '*.test' -o -name '*.prof' \) -exec rm -f {} +

# bench-compare is the gate, and tier-1 already runs it (`go test ./...`):
# TestGate generates the gated figures (`fsbench -fig gated`: the one list
# lives in cmd/fsbench) twice in one process and requires byte-identical
# result JSON, byte-identical well-shaped traces, and zero changed cells,
# counter drifts, metric drifts and shape changes against the committed
# trajectory bench/baseline.json. Refresh the baseline with bench-baseline
# when a change legitimately moves the numbers (and say why in the commit);
# -trace is on so the per-figure metrics deltas are recorded and gated.
bench-compare:
	$(GO) test -count=1 -run TestGate -v ./cmd/fsbench

bench-baseline:
	@mkdir -p bin
	$(GO) run ./cmd/fsbench -fig gated -scale tiny -trace bin/trace-baseline.json -format json -out bench/baseline.json

# sweep-wide runs the lincheck sweeps at 1 024 seeds each and prints the
# failing (mode, seed) lines, sorted, on stdout and their count on stderr. It
# is not a gate. To compare two trees, save each list
# (`make -s sweep-wide > after.txt`) and diff them with `comm`.
sweep-wide:
	@LINCHECK_SEEDS=1024 $(GO) test -count=1 -run TestSweep ./internal/lincheck 2>&1 \
		| sed -nE 's/^.*_test\.go:[0-9]+: (.* seed [0-9]+)( failed:|: [0-9]+ divergences).*/\1/p' \
		| sort -u | awk '{ print } END { print NR " failing lines" > "/dev/stderr" }'

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
# key and inode codecs, the kv store, the write-ahead log (append and replay),
# the client's cached path resolution, the server's durable-record encoders,
# its recovery (BenchmarkRecover) and the nodes' one way to wait for a peer
# (internal/rpc's BenchmarkPeerCall).
bench-layers:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/env ./internal/core ./internal/kv ./internal/wal ./internal/client ./internal/server ./internal/rpc

figures:
	$(GO) run ./cmd/fsbench -fig all -scale quick
