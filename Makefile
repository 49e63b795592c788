# Development targets for the DAP reproduction.

GO ?= go
DATE := $(shell date +%Y%m%d)

FUZZTIME ?= 30s

.PHONY: all build vet dapvet fmt-check doccheck test race fuzz-smoke bench bench-json bench-diff bench-smoke load-smoke load-smoke-bin load-json merge-smoke apicheck apigen matrix crash-test wal-overhead metrics-check

all: vet dapvet fmt-check doccheck build test apicheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific invariant linter (cmd/dapvet): determinism of the
# estimation path, lock ordering against the store, privacy-budget
# charge-before-mutate, hot-path allocation hygiene, error taxonomy and
# metrics registration rules. Violations are fixed or carry a justified
# //dapvet:<rule>-ok annotation; see DESIGN.md "Static analysis".
dapvet:
	$(GO) run ./cmd/dapvet ./...

# Fail when any file needs gofmt.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

# API-surface snapshots: the go doc output of the public package and of
# the serving stack (internal/stream, internal/transport) is committed
# under api/; apicheck fails when a surface drifts from its golden file,
# making every API change — and every growth of the serving surface — a
# reviewed diff. Regenerate deliberately with make apigen.
API_SNAPSHOTS := .:dap ./internal/stream:stream ./internal/transport:transport

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
	$(GO) run ./cmd/dapredteam -md MATRIX.md -json MATRIX.json

test:
	$(GO) test ./...

# Race-detector pass over every package. The race_on/race_off build-tag
# split keeps the detector-only assertions compiled out of normal builds.
race:
	$(GO) test -race ./...

# Short fuzzing pass over every untrusted decoder: WAL record payloads,
# WAL segment files, snapshots, the metrics exposition parser and task-
# spec JSON. Seed corpora live in each package's testdata/fuzz/; CI runs
# this with the default FUZZTIME=30s per target, local runs can go
# longer (make fuzz-smoke FUZZTIME=5m).
fuzz-smoke:
	$(GO) test -run '^Fuzz' -fuzz '^FuzzWALRecord$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^Fuzz' -fuzz '^FuzzWALSegment$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^Fuzz' -fuzz '^FuzzSnapshot$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^Fuzz' -fuzz '^FuzzMetricsParse$$' -fuzztime $(FUZZTIME) ./internal/metrics/
	$(GO) test -run '^Fuzz' -fuzz '^FuzzSpecJSON$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^Fuzz' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) ./internal/wirebin/
	$(GO) test -run '^Fuzz' -fuzz '^FuzzDeltaDecode$$' -fuzztime $(FUZZTIME) ./internal/wirebin/

# Durability fault-injection battery under the race detector: kill-and-
# restart recovery (mid-ingest / mid-rotation / mid-snapshot / torn WAL
# tail, tumbling and sliding), store-down degraded mode, and WAL/snapshot
# corruption handling.
crash-test:
	$(GO) test -race -run 'Crash|Recover|Durable|Flaky|Torn|StoreDown|Snapshot|WAL' \
		./internal/store/ ./internal/stream/ ./internal/transport/

# WAL throughput-overhead gate: drive the same 1M-report load through an
# in-memory collector and a durable one (-store-dir, fsync=os — the
# batched group-commit path), then fail if durability costs more than 5%
# throughput. Group commit + batched ingest keep the measured overhead
# near zero; the 5% bound absorbs machine noise.
wal-overhead:
	@rm -rf /tmp/dap-walbench /tmp/dap-walbench-mem.json /tmp/dap-walbench-dur.json; \
	$(GO) run ./cmd/daploadgen -addr "" -reports 1000000 -conns 4 -epoch 0 \
		-bench-json /tmp/dap-walbench-mem.json && \
	$(GO) run ./cmd/daploadgen -addr "" -reports 1000000 -conns 4 -epoch 0 \
		-store-dir /tmp/dap-walbench -fsync os -bench-json /tmp/dap-walbench-dur.json && \
	$(GO) run ./cmd/benchdiff -max-load-drop 0.05 \
		/tmp/dap-walbench-mem.json /tmp/dap-walbench-dur.json

# Micro- and experiment-level benchmarks (reduced scale; see bench_test.go).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# One-iteration benchmark smoke used by CI.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkEstimate|BenchmarkEStep|BenchmarkFig5Cell' -benchtime 1x .

# Regenerate every experiment at the default laptop scale and record the
# wall-clock trajectory in a dated BENCH_<date>.json (see EXPERIMENTS.md).
bench-json:
	$(GO) run ./cmd/dapbench -exp all -bench-json BENCH_$(DATE).json > /dev/null

# Compare two BENCH_*.json records and fail on a >15% total wall-clock
# regression. Defaults to the two newest records (the latest committed
# baseline vs the record a fresh `make bench-json` just wrote) so the
# gate always tracks the current baseline, not the oldest; override with
# make bench-diff OLD=BENCH_a.json NEW=BENCH_b.json.
bench-diff:
	@old="$(OLD)"; new="$(NEW)"; \
	if [ -z "$$old" ] || [ -z "$$new" ]; then \
		count=$$(ls BENCH_*.json 2>/dev/null | wc -l); \
		if [ "$$count" -lt 2 ]; then \
			echo "bench-diff: need two BENCH_*.json records, found $$count" \
			     "— run 'make bench-json' to record one, or pass OLD=/NEW= explicitly"; \
			exit 1; \
		fi; \
	fi; \
	if [ -z "$$new" ]; then new=$$(ls BENCH_*.json | sort | tail -1); fi; \
	if [ -z "$$old" ]; then old=$$(ls BENCH_*.json | sort | tail -2 | head -1); fi; \
	echo "benchdiff $$old $$new"; \
	$(GO) run ./cmd/benchdiff "$$old" "$$new"

# Observability end-to-end gate: boot a durable collector on loopback,
# drive traffic through every instrumented layer, scrape GET /metrics
# over HTTP and verify the payload parses, every documented metric
# family is present with its documented type, and the layer counters
# moved (see cmd/metricscheck). `-addr` points it at a live collector.
metrics-check:
	$(GO) run ./cmd/metricscheck

# Load-generator smoke: boot an in-process collector over real loopback
# HTTP, drive 10k reports through batched ingest with a rotating epoch
# clock, and require ≥100k reports/sec plus a sane live per-epoch estimate.
load-smoke:
	$(GO) run ./cmd/daploadgen -addr "" -reports 10000 -epoch 150ms \
		-min-rate 100000 -assert

# Binary-wire load smoke: the same loopback collector driven with compact
# binary frames — once over HTTP (-wire bin), once as UDP datagrams
# (-wire udp). The binary HTTP floor is 3x the JSON floor, the headline
# of the wire format; the UDP floor stays at the JSON level because the
# smoke boxes are free to drop datagrams under load.
load-smoke-bin:
	$(GO) run ./cmd/daploadgen -addr "" -reports 10000 -epoch 150ms \
		-wire bin -min-rate 300000 -assert
	$(GO) run ./cmd/daploadgen -addr "" -reports 10000 -epoch 150ms \
		-wire udp -min-rate 100000 -assert

# Scale-out smoke: two in-process node collectors push sealed epoch
# deltas to a coordinator while a single reference collector ingests the
# identical stream; the merged estimate must match the reference bit for
# bit and the coordinator's merge metric families must have moved. Each
# node drives one ordered connection (arrival order is part of the
# bit-identity contract), so the throughput floor sits below the
# multi-conn smokes.
merge-smoke:
	$(GO) run ./cmd/daploadgen -addr "" -nodes 2 -reports 20000 -min-rate 50000

# load-smoke plus: merge the measured throughput/latency for all three
# wires into the dated BENCH_<date>.json next to the experiment timings
# (keys load, load_bin, load_udp). Recording runs at 200k reports on two
# connections with the epoch clock off — at the smoke scale (10k, a
# sub-10ms wall on the binary wires) the numbers are dominated by startup
# noise, and a rotation firing between ingest end and the sanity estimate
# would hand the live estimator an empty window.
load-json:
	$(GO) run ./cmd/daploadgen -addr "" -reports 200000 -conns 2 -epoch 0 \
		-min-rate 100000 -assert -bench-json BENCH_$(DATE).json
	$(GO) run ./cmd/daploadgen -addr "" -reports 200000 -conns 2 -epoch 0 \
		-wire bin -min-rate 300000 -assert -bench-json BENCH_$(DATE).json
	$(GO) run ./cmd/daploadgen -addr "" -reports 200000 -conns 2 -epoch 0 \
		-wire udp -min-rate 100000 -assert -bench-json BENCH_$(DATE).json
