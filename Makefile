GO ?= go

# staticcheck is pinned so CI and laptops agree on the finding set; bump
# deliberately, with a pass over any new findings.
STATICCHECK_VERSION ?= 2025.1

.PHONY: all check lint vet staticcheck build test test-1proc race race-matrix fuzz-smoke bench bench-canonical soak-smoke clean

all: check

# check is the full pre-merge gate: static analysis (go vet, staticcheck),
# compilation of every package, and the test suite under the race detector —
# which holds the project's own analyzers and reachability guard
# (internal/lint) and the end-to-end hot-key, ingest-backpressure and
# SLO-capture drills (internal/server) — and the facade's packages once more on
# one core.
check: lint build race test-1proc

# lint runs the external static checkers. The project's own analyzers are
# tests (go test ./internal/lint), so they run in test and race.
lint: vet staticcheck

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools checks when the binary is on PATH and
# skips gracefully when it is not, so the gate works in minimal containers
# without network access to install it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-1proc runs the packages that drive the facade with GOMAXPROCS=1. The
# shard count defaults to GOMAXPROCS, so on a multi-core machine the default
# engine is never one shard; this keeps that path tested.
test-1proc:
	GOMAXPROCS=1 $(GO) test . ./ingest ./journal ./internal/server

# race covers every package under the race detector; the root package and
# internal/core carry the concurrency-sensitive paths (COW directory swaps,
# shard locking, dynBuf aging) and their stress tests.
race:
	$(GO) test -race ./...

# race-matrix is the concurrency gate: the full test suite plus the
# crash-recovery soak, race-built with GORACE=halt_on_error=1 so the
# first data race aborts the run, and all with the caarlockwatch build tag
# plus CAAR_LOCKWATCH armed so any mutex held past the bound dumps every
# goroutine stack (CAAR_LOCKWATCH_OUT, default lockwatch-stacks.txt) and
# panics instead of hanging CI. The tag also compiles in the watchdog's own
# trip/release/disarm tests, which plain `make race` skips.
race-matrix: export GORACE = halt_on_error=1
race-matrix: export CAAR_LOCKWATCH = 5s
race-matrix:
	$(GO) test -race -tags caarlockwatch ./...
	$(GO) build -race -tags caarlockwatch -o bin/adserver ./cmd/adserver
	$(GO) build -race -tags caarlockwatch -o bin/adsoak ./cmd/adsoak
	./bin/adsoak -server-bin bin/adserver -addr 127.0.0.1:9785 \
		-users 80 -ads 200 -messages 2500 -events-per-cycle 150 \
		-kills 3 -out BENCH_SOAK_RACE.json

# fuzz-smoke gives each fuzz target a short budget — enough to catch a
# regression in the journal frame decoder, crash recovery, the ingest accept
# contract, the request parsers, the sketches, or CAP's candidate-buffer
# merge without holding up the gate.
fuzz-smoke:
	$(GO) test ./journal/ -fuzz FuzzDecodeLine -fuzztime 10s -run '^$$'
	$(GO) test ./journal/ -fuzz FuzzRecoverTornTail -fuzztime 10s -run '^$$'
	$(GO) test ./journal/ -fuzz FuzzAppendBatchRecover -fuzztime 10s -run '^$$'
	$(GO) test ./ingest/ -fuzz FuzzAcceptedWritesEncode -fuzztime 10s -run '^$$'
	$(GO) test ./internal/server/ -fuzz FuzzSanitizeRequestID -fuzztime 10s -run '^$$'
	$(GO) test ./internal/server/ -fuzz FuzzParsePolicy -fuzztime 10s -run '^$$'
	$(GO) test ./internal/sketch/ -fuzz FuzzCountMinEstimate -fuzztime 10s -run '^$$'
	$(GO) test ./internal/sketch/ -fuzz FuzzWindowedDecay -fuzztime 10s -run '^$$'
	$(GO) test ./internal/core/ -fuzz FuzzDynBufMerge -fuzztime 10s -run '^$$'

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# bench-canonical runs the four BENCHMARK.json workloads through the
# canonical harness at the manifest's run length. It is the only source of
# speed numbers: a performance claim names one of its metrics on one of
# these workloads, before and after (see bench/README.md).
bench-canonical:
	for w in fanout_stream read_http write_http mixed_http; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done

# soak-smoke is the crash-recovery soak in its CI-sized configuration: both
# binaries built with the race detector, 3 random SIGKILL cycles plus the 4
# named crash points (journal pre-fsync, snapshot post-rename, snapshot
# post-fsync-pre-rename, journal mid-replay), every restart machine-checked against the client-side
# ack ledger, and the double-replay self-test at the end. Exits non-zero if
# any invariant fails; writes BENCH_SOAK.json. Runs in well under a minute.
soak-smoke:
	$(GO) build -race -o bin/adserver ./cmd/adserver
	$(GO) build -race -o bin/adsoak ./cmd/adsoak
	./bin/adsoak -server-bin bin/adserver -addr 127.0.0.1:9784 \
		-users 80 -ads 200 -messages 2500 -events-per-cycle 150 \
		-kills 3 -out BENCH_SOAK.json

# clean owns bin/: everything in it is built by a target above (the
# race-built smoke binaries), so the directory goes, not just the files we
# know.
clean:
	$(GO) clean ./...
	rm -rf bin
