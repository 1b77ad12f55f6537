# Developer entry points. `make verify` is the tier-1 gate CI runs.

GO ?= go

.PHONY: verify fmt vet build test bench bench-layers figures lint race clean detlint detlint-report bench-compare bench-baseline sweep-wide sweep-check fuzz

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
# cmd/detlint's TestVetTree runs the determinism analyzer suite
# (internal/detlint) over the whole tree through `go vet` and requires
# it clean — every diagnostic is either fixed or carries a //detlint:ignore
# with a written reason — and requires a seeded broken package to fail.
# The protocol rules (a retransmission answered from the memo, a vote,
# decision or commit notice sent after its WAL record) are kept by the code
# and tested in internal/server, not linted.
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
# result JSON, byte-identical well-shaped traces, and `fsbench -compare` to
# find no change at all against the committed trajectory bench/baseline.json:
# no cell, header, row, figure, row counter or metric may differ. Refresh the
# baseline with bench-baseline when a change legitimately moves the numbers
# (and say why in the commit).
bench-compare:
	$(GO) test -count=1 -run TestGate -v ./cmd/fsbench

# bench-baseline rewrites bench/baseline.json and prints every change it
# commits, from the same run: -compare exits 1 when there are changes, which
# is what a refresh is for, so only a status above 1 (a bad flag, a file
# that could not be read or written, a figure that failed its own check)
# fails the target.
bench-baseline:
	@mkdir -p bin
	$(GO) build -o bin/fsbench ./cmd/fsbench
	bin/fsbench -fig gated -scale tiny -trace bin/trace-baseline.json -format json \
		-out bench/baseline.json -compare bench/baseline.json; [ $$? -le 1 ]

# SWEEP_WIDE runs the lincheck sweeps at 4 096 seeds each; SWEEP_LINES turns
# its output into the failing (mode, seed) lines, sorted.
SWEEP_WIDE = LINCHECK_SEEDS=4096 $(GO) test -count=1 -run TestSweep ./internal/lincheck
SWEEP_LINES = sed -nE 's/^.*_test\.go:[0-9]+: (.* seed [0-9]+)( failed:|: [0-9]+ divergences).*/\1/p' | sort -u

# sweep-wide prints the failing lines on stdout and their count on stderr. To
# compare two trees, save each list (`make -s sweep-wide > after.txt`) and
# diff them with `comm`.
sweep-wide:
	@$(SWEEP_WIDE) 2>&1 | $(SWEEP_LINES) \
		| awk '{ print } END { print NR " failing lines" > "/dev/stderr" }'

# sweep-check is the wide sweep as a gate (CI's sweep job; not tier-1): the
# failing lines must equal internal/lincheck/testdata/sweep-wide.txt, so a
# new failure fails it, and so does a fixed one whose line is still listed —
# a fix removes its lines from the file. A sweep that does not build or that
# panics fails it too, rather than print no lines.
sweep-check:
	@mkdir -p bin
	@$(SWEEP_WIDE) > bin/sweep-wide.log 2>&1; \
	if grep -qE '^panic:|\[(build|setup) failed\]' bin/sweep-wide.log; then \
		cat bin/sweep-wide.log; exit 1; fi; \
	cat bin/sweep-wide.log | $(SWEEP_LINES) | diff -u internal/lincheck/testdata/sweep-wide.txt -

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
# key and inode codecs, the kv store (BenchmarkPutUnique: live heap per
# entry for unique names and inode-sized values), the write-ahead log (append,
# replay, and BenchmarkAppendTransient: a 2PC record's append and mark, held-B
# the bytes the log still holds at the end), the client's cached path
# resolution and its one metadata round trip (BenchmarkClientCall: one
# allocation, its packet), the server's durable-record encoders
# (BenchmarkEncodeCommit: a commit naming its directory in full and by its
# slot, wal-B/op each), its recovery (BenchmarkRecover), a 2PC rename and an
# aggregation round (BenchmarkRename, BenchmarkAggregate: allocations per
# round with -benchmem; BenchmarkRename's wal-held-B/op is the log bytes a
# rename leaves held), the nodes' one way to wait for a peer (internal/rpc's
# BenchmarkPeerCall), the one memo of served requests, client requests and 2PC
# prepares alike (BenchmarkServedAdmit: ns and allocs per replay-or-begin step,
# and the heap one idle client keeps at a node) and a replicated write
# through a data node's primary and backup (BenchmarkReplicatedWrite).
# BENCHFLAGS adds go test flags: CI's smoke step passes -benchtime 1x.
bench-layers:
	$(GO) test -run '^$$' -bench . -benchmem $(BENCHFLAGS) ./internal/env ./internal/core ./internal/kv ./internal/wal ./internal/client ./internal/server ./internal/rpc ./internal/datanode

# fuzz runs the three fuzz targets for FUZZTIME each (go test fuzzes one
# target per run): FuzzDecodeInode (internal/core: the inode image decoder
# never panics and accepts only what AppendInode produces),
# FuzzRecordDecoders (internal/server: no WAL record decoder panics on any
# payload) and FuzzStore (internal/kv: the store answers every call as a
# sorted-map model does, views survive writes to other keys, and no arena
# holds more than twice its live bytes). Tier-1 runs all three seed corpora;
# this searches beyond them. Minimizing an input is capped at 100 runs of it:
# uncapped, it took most of each target's FUZZTIME. A failing input still
# fails the step.
FUZZTIME ?= 20s
FUZZFLAGS = -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeInode$$' $(FUZZFLAGS) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDecoders$$' $(FUZZFLAGS) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzStore$$' $(FUZZFLAGS) ./internal/kv

figures:
	$(GO) run ./cmd/fsbench -fig all -scale quick
