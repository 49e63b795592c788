# Development targets for the DAP reproduction.

GO ?= go

FUZZTIME ?= 30s

.PHONY: all build vet dapvet deadcode fmt-check doccheck test race fuzz-smoke bench bench-smoke benchmark benchmark-smoke merge-smoke apicheck apigen matrix matrix-check crash-test loc

all: vet dapvet fmt-check doccheck build test apicheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific invariant linter (cmd/dapvet): determinism of the
# estimation and replay paths, lock ordering against the store, and
# privacy-budget charge-before-mutate. Violations are fixed or carry a
# justified //dapvet:<rule>-ok annotation; see DESIGN.md "Static analysis".
dapvet:
	$(GO) run ./cmd/dapvet ./...

# Reachability gate: builds every main package, plus a generated harness
# that references the whole root-package API, with inlining off and reads
# each binary's symbol table; every declared non-test function must be
# linked into one of them. A function only tests reach is deleted, or
# stays on the allowlist in internal/lint/deadcode_test.go with its
# reason — an entry without one, or one that covers nothing, fails too.
# The deadcode build tag keeps the no-inline build out of go test ./...
deadcode:
	$(GO) test -tags deadcode -count=1 -run '^TestDeadcode' ./internal/lint

# Code size: "counted lines" are the non-blank, non-comment lines of the
# non-test Go files outside benchmark/ and testdata/ (the figure ROADMAP
# budgets); "all Go lines" counts the same lines with the tests included.
LOC_FILES = find . -name '*.go' -not -path './benchmark/*' -not -path '*/testdata/*'
LOC_COUNT = xargs -0 cat | grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'

loc:
	@echo "counted lines: $$($(LOC_FILES) -not -name '*_test.go' -print0 | $(LOC_COUNT))"
	@echo "all Go lines:  $$($(LOC_FILES) -print0 | $(LOC_COUNT))"

# Fail when any file needs gofmt.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

# API-surface snapshots: the go doc output of the public package, of the
# estimator (internal/core) and of the serving stack (internal/stream,
# internal/transport) is committed under api/; apicheck fails when a
# surface drifts from its golden file, making every API change — and every
# growth of the estimator or serving surface — a reviewed diff. Regenerate
# deliberately with make apigen.
API_SNAPSHOTS := .:dap ./internal/core:core ./internal/stream:stream ./internal/transport:transport

apicheck:
	@for s in $(API_SNAPSHOTS); do \
		pkg=$${s%%:*}; name=$${s##*:}; \
		$(GO) doc -all $$pkg > /tmp/$$name-api-current.txt; \
		if ! diff -u api/$$name.txt /tmp/$$name-api-current.txt; then \
			echo; echo "API surface of $$pkg changed — review the diff above and run 'make apigen' to accept"; exit 1; \
		fi; \
	done

apigen:
	@for s in $(API_SNAPSHOTS); do \
		pkg=$${s%%:*}; name=$${s##*:}; \
		$(GO) doc -all $$pkg > api/$$name.txt; \
	done

# Documentation gate: exported symbols of the public package need doc
# comments, and the relative links in README/DESIGN/specs must resolve.
doccheck: vet
	$(GO) run ./cmd/doccheck

# Red-team robustness matrix (attack battery x schemes); writes markdown
# and JSON reports.
matrix:
	$(GO) run ./cmd/dapbench -exp matrix -md MATRIX.md -json MATRIX.json

# Matrix gate: regenerate both reports with make matrix's flags into a
# temporary directory and diff them against the committed ones. The run
# is deterministic for its seed and independent of the worker count, so
# any diff is a change of the numbers — accept one by running make matrix
# and committing the result. The committed reports come from linux/amd64;
# another floating-point path (arm64's fused multiply-add, or an amd64
# CPU without FMA under math.Exp) can move the last digits.
matrix-check:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/dapbench -exp matrix -md $$tmp/MATRIX.md -json $$tmp/MATRIX.json && \
	diff -u MATRIX.md $$tmp/MATRIX.md && diff -u MATRIX.json $$tmp/MATRIX.json; \
	status=$$?; rm -rf $$tmp; exit $$status

test:
	$(GO) test ./...

# Race-detector pass over every package. The race_on/race_off build-tag
# split keeps the detector-only assertions compiled out of normal builds.
# The benchmark's own tests check read lateness against a 100 ms limit,
# which the detector's slowdown breaks when other packages share the
# cores — they run last, alone.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '^repro/benchmark$$')
	$(GO) test -race ./benchmark

# Short fuzzing pass over every untrusted decoder: WAL record payloads,
# WAL segment files, snapshots, the metrics exposition parser, task-spec
# JSON, binary frames and deltas, and the JSON ingest scanner. Seed
# corpora live in each package's testdata/fuzz/; CI runs this with the
# default FUZZTIME=30s per target, local runs can go longer (make
# fuzz-smoke FUZZTIME=5m).
fuzz-smoke:
	$(GO) test -run '^Fuzz' -fuzz '^FuzzWALRecord$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^Fuzz' -fuzz '^FuzzWALSegment$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^Fuzz' -fuzz '^FuzzSnapshot$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^Fuzz' -fuzz '^FuzzMetricsParse$$' -fuzztime $(FUZZTIME) ./internal/metrics/
	$(GO) test -run '^Fuzz' -fuzz '^FuzzSpecJSON$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^Fuzz' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) ./internal/wirebin/
	$(GO) test -run '^Fuzz' -fuzz '^FuzzDeltaDecode$$' -fuzztime $(FUZZTIME) ./internal/wirebin/
	$(GO) test -run '^Fuzz' -fuzz '^FuzzIngestJSON$$' -fuzztime $(FUZZTIME) ./internal/transport/

# Durability fault-injection battery under the race detector: kill-and-
# restart recovery (mid-ingest / mid-rotation / mid-snapshot / torn WAL
# tail, tumbling and sliding), store-down degraded mode, and WAL/snapshot
# corruption handling.
crash-test:
	$(GO) test -race -run 'Crash|Recover|Durable|Flaky|Torn|StoreDown|Snapshot|WAL' \
		./internal/store/ ./internal/stream/ ./internal/transport/

# Micro- and experiment-level benchmarks (reduced scale; see bench_test.go).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# One-iteration benchmark smoke used by CI.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkEstimate|BenchmarkEStep|BenchmarkFig5Cell' -benchtime 1x .
	$(GO) test -run xxx -bench BenchmarkIngestBatchNewUsers -benchtime 1x ./internal/stream
	$(GO) test -run xxx -bench BenchmarkBindBatch -benchtime 1x ./internal/privacy

# The repository benchmark (BENCHMARK.json, benchmark/README.md): the only
# instrument that times the system. benchmark-smoke checks the harness
# itself; benchmark runs the five workloads one after another — never two
# at once, they share the box's two cores.
benchmark-smoke:
	$(GO) test -count=1 ./benchmark

benchmark:
	@for w in ingest_bin ingest_json ingest_wal serve_mixed paper_batch; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 18 --trace 0 || exit 1; \
	done

# Scale-out smoke: node collectors push sealed epoch deltas to a
# coordinator while a single reference collector ingests the identical
# stream; merged estimates and ledgers must match the reference bit for
# bit (over loopback HTTP, and in-process over the streaming engine).
merge-smoke:
	$(GO) test -race -count=1 -run 'TestDistributedEquivalence|TestMergeEquivalenceStream' \
		./internal/transport ./internal/stream
