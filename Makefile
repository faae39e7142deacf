GO ?= go

.PHONY: check ci test race bench bench-msbfs bench-obs bench-runctl bench-json bench-scale bench-serve bench-shard bench-tree bench-gate bench-gate-check bench-wal build vet fmt fuzz-smoke coverage

check: ## gofmt + vet + build + full tests + race on hot packages + bench smoke
	./scripts/check.sh

ci: check ## what .github/workflows/ci.yml runs

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt: ## fail if any tracked Go file is not gofmt-clean
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:" >&2; \
		echo "$$out" >&2; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/graph/... ./internal/bitset/... \
		./internal/bfs/... ./internal/centrality/... ./internal/dynsky/... \
		./internal/clique/... ./internal/runctl/... ./internal/serve/... \
		./internal/sketch/... ./internal/skytree/... ./internal/wal/...
	$(GO) test -race -run 'Cancel|Ctx|Apply' ./internal/mis/ ./internal/betweenness/

bench:
	$(GO) test -run '^$$' -bench 'Fig3' -benchtime 1x .

bench-msbfs: ## smoke the bit-parallel MS-BFS engine vs the scalar sweeps
	$(GO) test -run '^$$' -bench 'MSBFS' -benchtime 1x ./internal/bfs/
	$(GO) test -run '^$$' -bench 'FirstRoundSweep' -benchtime 1x ./internal/centrality/

bench-obs: ## measure instrumentation overhead: disabled vs enabled recorder
	$(GO) test -run '^$$' -bench 'ObsOverhead' -benchtime 3x .
	$(GO) test -run '^$$' -bench 'ObsSpan' ./internal/obs/

bench-runctl: ## measure cancellation overhead: nocontext vs background vs cancellable
	$(GO) test -run '^$$' -bench 'RunctlOverhead' -benchtime 3x .
	$(GO) test -run '^$$' -bench 'CheckpointTick' ./internal/runctl/

fuzz-smoke: ## short fuzz runs on every fuzz target: graph readers, shard partitioner, skyline oracle, serving API (one -fuzz target per invocation)
	$(GO) test -run '^$$' -fuzz 'FuzzReadEdgeList' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz 'FuzzReadBinary' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz 'FuzzPartitionShards' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz 'FuzzSkylineOracle' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz 'FuzzServeRequest' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz 'FuzzWALReplay' -fuzztime 10s ./internal/wal/

COVER_WARN ?= 70
COVER_FAIL ?= 60
coverage: ## internal/core statement coverage; warn under COVER_WARN%, fail under COVER_FAIL%
	$(GO) test -coverprofile=coverage.out ./internal/core/
	@total="$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}')"; \
	echo "internal/core coverage: $$total%"; \
	if [ "$$(printf '%.0f' "$$total")" -lt "$(COVER_FAIL)" ]; then \
		echo "FAIL: coverage $$total% is below the $(COVER_FAIL)% floor" >&2; exit 1; \
	elif [ "$$(printf '%.0f' "$$total")" -lt "$(COVER_WARN)" ]; then \
		echo "WARN: coverage $$total% is below the $(COVER_WARN)% target" >&2; \
	fi

bench-json: ## regenerate BENCH_1/BENCH_2-style rows into bench.json
	$(GO) run ./cmd/nsbench -json bench.json -metrics

SCALE_N ?= 2000000
BENCH3  ?= bench-scale.json
bench-scale: ## million-scale pipeline: generate -> stream-convert -> mmap -> skyline (SCALE_N, BENCH3 knobs)
	$(GO) run ./cmd/nsbench -scalebench -scale-n $(SCALE_N) -json $(BENCH3)

SHARD_S ?= 1,4,16,64
BENCH5  ?= BENCH_5.json
bench-shard: ## sharded-engine sweep vs the serial engine on a 2M mmap snapshot (SHARD_S, SCALE_N, BENCH5 knobs)
	$(GO) run ./cmd/nsbench -shardbench -scale-n $(SCALE_N) -shards $(SHARD_S) -json $(BENCH5)

TREE_N  ?= 100000
BENCH6  ?= BENCH_6.json
bench-tree: ## layered-index grid: index-assisted top-k/subset/maintenance vs per-query recompute (TREE_N, BENCH6 knobs)
	$(GO) run ./cmd/nsbench -treebench -scale-n $(TREE_N) -json $(BENCH6)

GATE_OUT ?= bench-gate.json
bench-gate: ## regenerate the small-n gate rows (commit to scripts/bench_baseline.json to refresh the baseline)
	$(GO) run ./cmd/nsbench -gatebench -json $(GATE_OUT)

bench-gate-check: ## run the gate rows and diff them against the committed baseline (fails on >25% ratio regression)
	$(GO) run ./cmd/nsbench -gatebench -json bench-gate.json
	$(GO) run scripts/bench_compare.go scripts/bench_baseline.json bench-gate.json

BENCH7 ?= BENCH_7.json
bench-wal: ## durability sweep: WAL fsync policies, crash recovery, checkpoint cost, capped-admission overload (BENCH7 knob)
	$(GO) run ./cmd/nsbench -walbench -json $(BENCH7)

SERVE_N     ?= 100000
SERVE_SWAPS ?= 5
BENCH4      ?= bench-serve.json
bench-serve: ## serving pipeline: nsgen snapshot -> nsserve daemon -> nsload mixed traffic (SERVE_N, SERVE_SWAPS, BENCH4 knobs)
	SERVE_N=$(SERVE_N) SERVE_SWAPS=$(SERVE_SWAPS) BENCH4=$(BENCH4) ./scripts/bench_serve.sh
