GO ?= go

.PHONY: build test race verify loc loc-check fuzz-smoke benchmark bench-quick microbench clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# verify is the full gate: formatting, static checks (staticcheck when
# installed — CI installs a pinned version), the race-enabled test
# run, and a short fuzz smoke over the untrusted-input surfaces.
verify:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke

# loc prints the non-test Go lines outside bench/, the figure ROADMAP
# item 11 tracks; loc-check fails above LOC_CEILING, the one place the
# ceiling is written (CI runs it). The figure's history is in CHANGES.md.
LOC_CEILING = 29462

loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' | xargs cat | wc -l

loc-check:
	@n=$$($(MAKE) -s loc); echo "$$n non-test Go lines outside bench/ (ceiling $(LOC_CEILING))"; test $$n -le $(LOC_CEILING)

# fuzz-smoke runs each fuzz target briefly: enough to catch shallow
# decoder/parser panics on every verify, without CI-scale fuzzing.
fuzz-smoke:
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=5s -run '^$$' ./internal/wal
	$(GO) test -fuzz=FuzzParse -fuzztime=5s -run '^$$' ./internal/sqlparser
	$(GO) test -fuzz=FuzzLint -fuzztime=5s -run '^$$' ./internal/check

# benchmark runs the repository's benchmark (bench/README.md): five
# workloads, end-to-end and per-layer metrics, every result checked
# against the committed goldens. It is what BENCHMARK.json runs and
# what a performance claim is measured with; about three minutes.
benchmark:
	$(GO) run ./bench

# bench-quick runs only the golden-checked prefix of each workload
# (about 16 s): no usable timings, but a result divergence in any of
# the five workloads fails it. CI runs it on every push.
bench-quick:
	$(GO) run ./bench -quick

# microbench runs the Go benchmark suite once over every cell.
microbench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

clean:
	$(GO) clean ./...
