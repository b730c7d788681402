# Development entry points; CI runs the same commands (see
# .github/workflows/ci.yml).

# Benchmarks recorded into the repository's perf trajectory (ns/op, B/op,
# allocs/op snapshots that future PRs can gate against). Keep this filter
# in sync with the bench-regression job's -bench pattern.
BENCH_FILTER ?= BenchmarkRun|BenchmarkEngineRun|BenchmarkStreamRunner|BenchmarkScale|BenchmarkSweep|BenchmarkBatchSweep|BenchmarkOnlineSubmit|BenchmarkOnlineRetry|BenchmarkMetricsRender
BENCH_RECORD ?= BENCH_PR13.json

.PHONY: test build vet lint bench bench-record aptbench fuzz

build:
	go build ./...

vet:
	go vet ./...

# lint runs the full static gate: formatting, go vet, then the repo's own
# interprocedural analyzer suite (determinism, hotpath, lockorder, goleak,
# concurrency, floatcmp — see ci/lint). CI's lint job runs exactly this
# target, plus a -json artifact pass. The suite loads export data from the
# build cache; a warm cache (`make build`) keeps the run in the seconds.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	go vet ./...
	go run ./ci/lint ./...

test:
	go test ./...

# fuzz runs every Fuzz* target in the module for 10 s beyond its seed
# corpus, one `go test -fuzz` per target (go test fuzzes one target per
# invocation). Targets are discovered per package with `go test -list`, so
# a new fuzzer needs no edit here. A failing input is written under the
# package's testdata/fuzz. CI's fuzz job calls this target.
fuzz:
	@set -e; for pkg in $$(go list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}{{end}}' ./...); do \
		list="$$(go test -list '^Fuzz' $$pkg)"; \
		for t in $$(echo "$$list" | grep '^Fuzz' || true); do \
			echo "fuzz: $$pkg $$t"; \
			go test -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s $$pkg; \
		done; \
	done

bench:
	go test -run '^$$' -bench '$(BENCH_FILTER)' -benchmem ./...

# bench-record refreshes the committed perf snapshot: run it on a quiet
# machine and commit the updated $(BENCH_RECORD) alongside perf-sensitive
# changes. Compare against an older record with ci/benchgate after
# converting, or diff the JSON directly.
bench-record:
	go test -run '^$$' -bench '$(BENCH_FILTER)' -benchmem -count 3 -timeout 30m ./... \
		| go run ./ci/benchrecord -o $(BENCH_RECORD)

# aptbench smoke-runs the repository benchmark (aptbench/BENCHMARK.md) once
# per workload and fails unless every run's last line reports
# "correct": true, which pins the simulator digests in
# aptbench/digests.json. Builds land in .bench_build/. CI's aptbench-smoke
# job calls this target.
aptbench:
	@for w in sim-apt-sweep sim-heft-200k serve-submit serve-graph; do \
		last="$$(bash aptbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | tail -n 1)"; \
		echo "$$w: $$last"; \
		echo "$$last" | grep -q '"correct": *true' || { echo "aptbench: $$w is not correct" >&2; exit 1; }; \
	done
