GO ?= go
GOFMT ?= gofmt

# Packages with real concurrency (locks, goroutines, HTTP handlers) that
# must stay clean under the race detector.
RACE_PKGS = ./internal/core ./internal/server ./internal/persist ./internal/admission ./internal/obs ./internal/shard ./internal/shard/reshard ./internal/repair ./internal/replica ./internal/pq ./internal/hnsw ./internal/parallel ./internal/graph

.PHONY: check fmt vet build test race bench bench-go bench-serve

## check: everything CI would run — gofmt, vet (the serving benchmark's
## own module too, so an API change that breaks it fails here), build,
## race-sensitive packages under -race, then the full test suite
## (including the e2e server shutdown/recovery test).
check: fmt vet build race test

## fmt: gofmt -l over every Go file in the tree (the root package and
## benchmark/ included), skipping the benchmark's build directory.
fmt:
	@out="$$($(GOFMT) -l $$(find . -path ./.bench_build -prune -o -name '*.go' -print))"; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...

build:
	$(GO) build ./...

race:
	$(GO) test -race $(RACE_PKGS)

test:
	$(GO) test ./...

# BENCHARGS=-short shrinks sizes and timing windows for CI.
BENCHARGS ?=

## bench: run the perf harness on this machine, writing BENCH_kernels.json,
## BENCH_search.json, and BENCH_pq.json. The kernel/search files contain
## both dispatch arms (scalar and SIMD) measured in the same process — a
## before/after from one run; the pq file compares memory-tiered (PQ-ADC +
## exact rerank) serving against full precision at matched efs.
bench:
	$(GO) run ./cmd/ngfix-bench -perf kernels -json BENCH_kernels.json $(BENCHARGS)
	$(GO) run ./cmd/ngfix-bench -perf search -json BENCH_search.json $(BENCHARGS)
	$(GO) run ./cmd/ngfix-bench -perf pq -json BENCH_pq.json $(BENCHARGS)

## bench-go: the stdlib testing benchmarks, unchanged.
bench-go:
	$(GO) test -bench=. -benchmem

# N is how many numbered result files bench-serve writes.
N ?= 10

## bench-serve: the serving benchmark (benchmark/README.md) — all four
## workloads against the real ngfix-server binary, N times, one result
## file per repetition under benchmark/out/. Run it in two checkouts and
## diff them with the printed command.
bench-serve:
	$(GO) run -C benchmark . -repeat $(N)
	@echo "to compare with another checkout's runs (paths absolute, or relative to benchmark/):"
	@echo "  $(GO) run -C benchmark . compare /path/to/parent/benchmark/out/result-all-seed1*.json -- out/result-all-seed1*.json"
