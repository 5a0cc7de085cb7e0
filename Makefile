# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make check` is the full pre-push gate.

GO ?= go

.PHONY: build test lint fmt check vet-tool bench bench-table profile-get

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

# vet-tool builds the analyzer binary once so repeated lint runs (and the
# CI steps that share it) skip the go-run rebuild.
vet-tool:
	$(GO) build -o bin/minuet-vet ./cmd/minuet-vet

# lint runs the project-specific analyzers (docs/STATIC_ANALYSIS.md) plus
# the stock toolchain checks. staticcheck and govulncheck run in CI but are
# optional locally: they are skipped with a note if not installed.
lint: fmt vet-tool
	$(GO) vet ./...
	./bin/minuet-vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

# bench runs one workload of the repo benchmark (BENCHMARK.json, bench/README.md)
# from this checkout: make bench WORKLOAD=oltp_mem SEED=1. Workloads: oltp_mem,
# oltp_tcp, oltp_wal, htap_branch. The result JSON goes to stdout.
WORKLOAD ?= oltp_mem
SEED ?= 1
bench:
	bash bench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 20 --trace 0

# bench-table runs all four workloads at SEED (~90 s) and prints their
# end-to-end metrics as the markdown table README.md quotes under "Read
# path"; the result JSON stays in .bench_build/results/.
WORKLOADS := oltp_mem oltp_tcp oltp_wal htap_branch
bench-table:
	mkdir -p .bench_build/results
	for w in $(WORKLOADS); do \
		bash bench/run.sh --workload $$w --seed $(SEED) --seconds 20 --trace 0 > .bench_build/results/$$w.json || exit 1; \
	done
	$(GO) run ./cmd/minuet-benchtable $(WORKLOADS:%=.bench_build/results/%.json)

# profile-get prints where a warm point read spends its CPU (test binary and
# profile land in .bench_build/, which is ignored): start a read-path change
# from this, not from a guess. `go tool pprof -list <func>` on the same two
# files shows the lines.
profile-get:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench GetWarmCache -benchtime 200000x -benchmem \
		-cpuprofile .bench_build/get.cpu.prof -o .bench_build/minuet.test .
	$(GO) tool pprof -top -nodecount 25 .bench_build/minuet.test .bench_build/get.cpu.prof

check: build lint test
