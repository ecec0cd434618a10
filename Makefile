GO ?= go

# staticcheck is pinned so lint results are reproducible; bump deliberately.
STATICCHECK_VERSION ?= 2025.1

# Hot-path benchmark tracking: make bench-json records the spatial/shard
# scan fast paths, the coreset maintenance hot loops, the training step,
# top-k compression, and their baselines
# into $(BENCH_JSON), and appends the same results as one labelled JSONL
# line to $(BENCH_HISTORY) so trends survive across runs;
# cmd/bench-compare diffs a candidate file against the committed
# $(BENCH_BASELINE) and fails on >15% ns/op regressions for the hot paths,
# then prints the per-benchmark trend across the history file.
BENCH_BASELINE ?= BENCH_PR12.json
BENCH_JSON ?= $(BENCH_BASELINE)
BENCH_HISTORY ?= BENCH_HISTORY.jsonl
BENCH_LABEL ?= local
BENCH_FILTER := BenchmarkCandidatePairs|BenchmarkWorldTick|BenchmarkBEV|BenchmarkShardScan|BenchmarkEnsureCoreset|BenchmarkAbsorbCoreset|BenchmarkWindowAdvance|BenchmarkWindowRowAt|BenchmarkTrainTick|BenchmarkTrainStep|BenchmarkTopK
BENCH_HOT := CandidatePairs,WorldTick,ShardScan,EnsureCoreset,AbsorbCoreset,WindowRowAt,TrainTick,TrainStep,TopK
BENCH_PKGS := ./internal/core/ ./internal/world/ ./internal/shard/ ./internal/trace/ ./internal/model/ ./internal/compress/

.PHONY: build vet fmtcheck lint test race bench bench-json bench-compare bench-pprof scale-smoke telemetry-smoke stream-smoke remote-stream-smoke coreset-smoke sched-smoke doccheck ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file must be gofmt-clean; the target lists the offenders.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "fmtcheck: gofmt -l reports:"; echo "$$out"; exit 1; \
	fi

# Fetching the pinned staticcheck needs the module proxy; offline boxes
# (this repo carries no vendored deps) degrade to a warning so make ci
# stays runnable anywhere, while CI — which has network — lints for real.
lint:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... ; \
	else \
		echo "lint: staticcheck@$(STATICCHECK_VERSION) unavailable (no module proxy access?); skipping"; \
	fi

test:
	$(GO) test ./...

# The simulator runs parallel by default; the race detector is part of
# tier-1 verification for the concurrent paths (engine ticks, experiment
# harness fan-out, chunked matmul).
# The experiments package runs several full co-simulations; under the race
# detector that exceeds go test's default 10-minute per-package budget
# (~19 min on a fast box, longer on one core).
race:
	$(GO) test -race -timeout 45m ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_FILTER)' -benchmem \
		$(BENCH_PKGS) | $(GO) run ./cmd/bench-json -o $(BENCH_JSON) \
		-append-history $(BENCH_HISTORY) -label $(BENCH_LABEL)

bench-compare:
	$(GO) run ./cmd/bench-compare -hot '$(BENCH_HOT)' -history $(BENCH_HISTORY) \
		$(BENCH_BASELINE) $(BENCH_JSON)

# CPU profiles of the scan hot paths, for flame-graph inspection and CI
# artifacts. Profiles land in bench-profiles/ next to their test binaries
# (go test needs -o when profiling, so the binary is kept alongside).
bench-pprof:
	mkdir -p bench-profiles
	$(GO) test -run '^$$' -bench 'BenchmarkShardScan' -benchmem \
		-cpuprofile bench-profiles/shard.cpu.pprof -o bench-profiles/shard.test ./internal/shard/
	$(GO) test -run '^$$' -bench 'BenchmarkCandidatePairs' -benchmem \
		-cpuprofile bench-profiles/core.cpu.pprof -o bench-profiles/core.test ./internal/core/

# A 2048-vehicle sharded scan under the race detector: exercises the
# halo-exchange and per-shard scratch paths at scale without datasets.
scale-smoke:
	$(GO) run -race ./cmd/lbchat-bench -exp fleetscan -vehicles 2048 -duration 10 -shards 4

# End-to-end check of the telemetry pipeline: a tiny sim writes its event
# stream as JSONL plus its aggregated summary CSV, and telemetry-lint fails
# unless the stream is non-empty, every line decodes against the event
# schema, and every summary row names a canonical metric.
telemetry-smoke:
	$(eval TMPDIR_SMOKE := $(shell mktemp -d))
	$(GO) run ./cmd/lbchat-sim -scale test -vehicles 4 -duration 120 \
		-telemetry-out $(TMPDIR_SMOKE)/events.jsonl \
		-summary-out $(TMPDIR_SMOKE)/summary.csv > /dev/null
	$(GO) run ./cmd/telemetry-lint -summary $(TMPDIR_SMOKE)/summary.csv \
		$(TMPDIR_SMOKE)/events.jsonl
	rm -rf $(TMPDIR_SMOKE)

# A/B check of the streaming trace engine under the race detector: the same
# small co-simulation runs once resident and once through the bounded
# sliding-window source (-stream-trace), and the two telemetry event streams
# must be byte-identical — chunk traffic flows through a side channel, never
# the event stream.
stream-smoke:
	$(eval TMPDIR_STREAM := $(shell mktemp -d))
	$(GO) run -race ./cmd/lbchat-sim -scale test -vehicles 4 -duration 120 \
		-telemetry-out $(TMPDIR_STREAM)/resident.jsonl > /dev/null
	$(GO) run -race ./cmd/lbchat-sim -scale test -vehicles 4 -duration 120 \
		-stream-trace -telemetry-out $(TMPDIR_STREAM)/streamed.jsonl > /dev/null
	cmp $(TMPDIR_STREAM)/resident.jsonl $(TMPDIR_STREAM)/streamed.jsonl
	rm -rf $(TMPDIR_STREAM)

# End-to-end check of the remote trace path: a recorded LBTC trace is
# served by cmd/trace-serve on a loopback port, and the same co-simulation
# runs once from the file (-trace-file) and once over HTTP (-trace-url).
# The telemetry event streams must be byte-identical — remote paging
# changes where chunks come from, never what the engine computes — and the
# remote run's summary CSV must lint clean against the canonical metric
# registry, which covers the trace.chunk_* fetch-pipeline counters only a
# remote run emits.
remote-stream-smoke:
	$(eval TMPDIR_REMOTE := $(shell mktemp -d))
	$(GO) build -o $(TMPDIR_REMOTE)/trace-serve ./cmd/trace-serve
	$(GO) run ./cmd/worldgen -vehicles 4 -trace 240 \
		-trace-out $(TMPDIR_REMOTE)/trace.lbtc > /dev/null
	$(GO) run -race ./cmd/lbchat-sim -scale test -duration 120 \
		-trace-file $(TMPDIR_REMOTE)/trace.lbtc \
		-telemetry-out $(TMPDIR_REMOTE)/local.jsonl > /dev/null
	set -e; \
	$(TMPDIR_REMOTE)/trace-serve -file $(TMPDIR_REMOTE)/trace.lbtc \
		-addr 127.0.0.1:0 -addr-file $(TMPDIR_REMOTE)/addr & \
	pid=$$!; trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 100); do [ -s $(TMPDIR_REMOTE)/addr ] && break; sleep 0.1; done; \
	[ -s $(TMPDIR_REMOTE)/addr ] || { echo "trace-serve never published its address"; exit 1; }; \
	$(GO) run -race ./cmd/lbchat-sim -scale test -duration 120 \
		-trace-url http://$$(cat $(TMPDIR_REMOTE)/addr) \
		-telemetry-out $(TMPDIR_REMOTE)/remote.jsonl \
		-summary-out $(TMPDIR_REMOTE)/summary.csv > /dev/null
	cmp $(TMPDIR_REMOTE)/local.jsonl $(TMPDIR_REMOTE)/remote.jsonl
	$(GO) run ./cmd/telemetry-lint -summary $(TMPDIR_REMOTE)/summary.csv \
		$(TMPDIR_REMOTE)/remote.jsonl
	rm -rf $(TMPDIR_REMOTE)

# A/B check of the coreset refresh arms under the race detector. The two
# arms are distinct sampling processes, so the check is within-arm
# determinism: each arm's telemetry event stream must be byte-identical
# between a serial run and a parallel sharded run (leaf/merge cache stats
# flow through a side channel, never the event stream) — and the arms must
# actually differ from each other, proving -full-coreset-rebuild switches
# the refresh path.
coreset-smoke:
	$(eval TMPDIR_CORESET := $(shell mktemp -d))
	$(GO) run -race ./cmd/lbchat-sim -scale test -vehicles 4 -duration 120 \
		-workers 1 -telemetry-out $(TMPDIR_CORESET)/inc-serial.jsonl > /dev/null
	$(GO) run -race ./cmd/lbchat-sim -scale test -vehicles 4 -duration 120 \
		-workers 4 -shards 2 -telemetry-out $(TMPDIR_CORESET)/inc-parallel.jsonl > /dev/null
	cmp $(TMPDIR_CORESET)/inc-serial.jsonl $(TMPDIR_CORESET)/inc-parallel.jsonl
	$(GO) run -race ./cmd/lbchat-sim -scale test -vehicles 4 -duration 120 \
		-full-coreset-rebuild -workers 1 \
		-telemetry-out $(TMPDIR_CORESET)/full-serial.jsonl > /dev/null
	$(GO) run -race ./cmd/lbchat-sim -scale test -vehicles 4 -duration 120 \
		-full-coreset-rebuild -workers 4 -shards 2 \
		-telemetry-out $(TMPDIR_CORESET)/full-parallel.jsonl > /dev/null
	cmp $(TMPDIR_CORESET)/full-serial.jsonl $(TMPDIR_CORESET)/full-parallel.jsonl
	@if cmp -s $(TMPDIR_CORESET)/inc-serial.jsonl $(TMPDIR_CORESET)/full-serial.jsonl; then \
		echo "coreset-smoke: -full-coreset-rebuild produced an identical stream; arm flag is not wired"; \
		exit 1; \
	fi
	rm -rf $(TMPDIR_CORESET)

# A/B check of the due-time scheduler arms under the race detector. Unlike
# the coreset arms, the calendar queue and the legacy per-tick fleet scan
# must produce BYTE-IDENTICAL event streams — the wheel changes how due
# vehicles are discovered, never which vehicles are due or in what order —
# so the check is cross-arm equality, plus calendar determinism across a
# parallel sharded run (scheduler stats flow through a side channel, never
# the event stream).
sched-smoke:
	$(eval TMPDIR_SCHED := $(shell mktemp -d))
	$(GO) run -race ./cmd/lbchat-sim -scale test -vehicles 4 -duration 120 \
		-workers 1 -telemetry-out $(TMPDIR_SCHED)/calendar.jsonl > /dev/null
	$(GO) run -race ./cmd/lbchat-sim -scale test -vehicles 4 -duration 120 \
		-legacy-due-scan -workers 1 \
		-telemetry-out $(TMPDIR_SCHED)/legacy.jsonl > /dev/null
	cmp $(TMPDIR_SCHED)/calendar.jsonl $(TMPDIR_SCHED)/legacy.jsonl
	$(GO) run -race ./cmd/lbchat-sim -scale test -vehicles 4 -duration 120 \
		-workers 4 -shards 2 \
		-telemetry-out $(TMPDIR_SCHED)/calendar-parallel.jsonl > /dev/null
	cmp $(TMPDIR_SCHED)/calendar.jsonl $(TMPDIR_SCHED)/calendar-parallel.jsonl
	rm -rf $(TMPDIR_SCHED)

# Every internal package must carry its godoc in a dedicated doc.go opening
# with the canonical "// Package <name>" sentence.
doccheck:
	@fail=0; for d in internal/*/; do \
		pkg=$$(basename $$d); \
		if [ ! -f "$$d/doc.go" ]; then \
			echo "doccheck: $$d is missing doc.go"; fail=1; \
		elif ! grep -q "^// Package $$pkg " "$$d/doc.go"; then \
			echo "doccheck: $$d/doc.go lacks a '// Package $$pkg' comment"; fail=1; \
		fi; \
	done; exit $$fail

ci: build vet fmtcheck doccheck lint test race telemetry-smoke stream-smoke remote-stream-smoke coreset-smoke sched-smoke
