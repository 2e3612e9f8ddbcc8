GO ?= go

.PHONY: build test race verify loc fuzz-smoke benchmark bench-quick microbench clean

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

# loc prints the non-test Go lines outside bench/ — the figure ROADMAP
# item 5 tracks (30,670 before PR 16, 29,553 before PR 17, 29,346
# before PR 18, 29,110 before PR 19, whose validity windows on the
# function memo are +199 for 2.2× on both MAX workloads, 29,309 before
# PR 20, whose expression compiler replaces the tree walker for +264 and
# 1.6× on seq-max-1y, 29,573 before PR 21, 29,415 before PR 22, 29,248
# before PR 23, 29,059 before PR 24, whose SELECT pipeline replaces five
# relation-at-a-time operators for +205 and 0.41× kb_per_stmt on
# seq-max-1y, 29,264 before a table's endpoints were read off its rows
# instead of kept as a second, incrementally maintained copy in the
# statistics registry: -335, 28,929 before taucheck's script catalog
# became a storage.Catalog copy and the ALTER rule and the put-table
# effect moved into storage: -110, 28,819 before the PSM interpreter said
# each rule once — one binding list per frame, one relation resolver, one
# invocation body, control flow as results: -158, 28,661 before an
# INSERT adopted its source's rows, journaled once per statement and
# resolved its column mapping once per schema: +174, the tentpole +141 and
# its riders +33, for 0.32x allocs_per_stmt on seq-perst-1y, 28,835
# before a query's rows stayed on the session's stacks — written once
# onto a value stack, read there by every consumer inside the statement,
# copied once when they leave: +210, the tentpole +186 and its riders +24,
# for 0.56x allocs_per_stmt on seq-max-1y, 29,045 before an effect
# summary became one union over the call graph — each routine body walked
# once, the 64-round fixpoint and TAU008's own walk gone — and TAU040
# ran types.Arith: -78, 28,967 before a routine call ran on the session's
# stacks — its frame, its blocks and their cursors, its query levels and
# its per-call hash tables reused, not allocated: +110, the tentpole +90
# and its riders +20, for 0.28x allocs_per_stmt on seq-max-1y); CI fails
# above 29,077.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' | xargs cat | wc -l

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
