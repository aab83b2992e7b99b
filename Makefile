# Standard workflows for the sapla reproduction.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all ci build examples test test-v3 cross race race-short crash cover bench bench-check bench-smoke bench-probe vet lint fmtcheck fuzz report clean

all: build vet test race-short

# ci mirrors .github/workflows/ci.yml step for step: the workflow shells out
# to exactly these targets, so what passes here passes there.
ci: build vet fmtcheck test examples test-v3 cross cover race-short crash bench-check bench-smoke

build:
	$(GO) build ./...

# Run every program under examples/: they have no tests, and `go build`
# alone passes an example that compiles but fails when it runs.
examples:
	@set -e; for d in examples/*/; do echo "go run ./$$d"; $(GO) run "./$$d" > /dev/null; done

vet:
	$(GO) vet ./...

# The repo's static analyzers and the reviewed go-statement and lock-class
# lists (README "Static analysis"); `make test` runs the same package.
# -count=1: the analyzers' packages come from `go list`, which reads the tree
# in a child process the test cache cannot see, so this target never reports
# a cached pass.
lint:
	$(GO) test -count=1 ./internal/lint

# Fail if any file needs gofmt.
fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

# The envelope filter's SSE kernel (internal/ts/envelope_amd64.s) must give
# the pure-Go loop's bits whatever GOAMD64 level that loop is compiled at: at
# v3 a compiler may fuse a multiply and an add (FMA), which the loop's
# float32(d*d) forbids, and the identity tests would see it. The grouped
# refine kernel (ts.RefineGroup) is Go adds the compiler may fuse at v3 too:
# its identity tests (TestRefineGroupBits, FuzzRefineGroup's seeds) hold every
# lane to ts.EuclideanSq's bits there as well.
test-v3:
	GOAMD64=v3 $(GO) test ./internal/ts ./internal/index

# Everywhere but amd64 the pure-Go loop is the kernel (envelope_other.go):
# vet and build the tree for arm64 so that fallback keeps compiling.
cross:
	GOARCH=arm64 $(GO) vet ./internal/ts && GOARCH=arm64 $(GO) build ./...

race:
	$(GO) test -race ./...

# Race-check the one fan-out (par.Do) and the packages that call it or run
# concurrent hot paths of their own (the experiments, the batch query engine /
# concurrent index, the HTTP service, and the WAL) without paying for a full
# -race sweep. This is also the check on guarded fields: the mutexes are the
# reviewed lock-class list (TestLockClasses), and -race is what sees a field
# they guard touched without its lock.
race-short:
	$(GO) test -race ./internal/par ./internal/eval ./internal/index ./internal/reduce ./internal/server ./internal/wal

# Crash-recovery property tests under the race detector, repeated: random
# ingest/delete/snapshot interleavings are crashed (fault-injected in-memory
# filesystem, torn tails, lost page cache) and recovered, at the WAL layer
# (TestCrashRecoveryProperty on one stream, TestShardedCrashRecoveryProperty
# on the multiplexed layout) and end-to-end through the HTTP service. The
# sharded properties run at shard counts 1, 4 and 7 (one/even/prime), so every
# recovery covers legacy single-stream dirs and multiplexed per-shard streams. Nightly bumps
# CRASH_COUNT for a longer soak.
CRASH_COUNT ?= 3
crash:
	$(GO) test -race -count=$(CRASH_COUNT) -run 'CrashRecovery' ./internal/wal ./internal/server

# Coverage gate for the index, durability and service cores: writes cover.out
# (uploaded by CI as an artifact on every run) and fails when combined
# statement coverage drops below COVER_MIN percent. The other packages are
# covered by `make test`; these three carry the correctness-critical sharding,
# recovery and request logic, so their coverage is an enforced floor, not a
# report.
COVER_MIN ?= 85
COVER_PROFILE ?= cover.out
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) -covermode=atomic ./internal/index ./internal/wal ./internal/server
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "combined coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
		{ echo "FAIL: coverage $$total% below $(COVER_MIN)% floor"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem ./...

# The end-to-end benchmark is a module of its own (sapla/bench) that compiles
# against internal/index, internal/server and sapla-serve's flags, and root
# `go test ./...` does not descend into it: vet it and run its unit tests and
# smoke run here, so a product change that breaks it fails before the
# benchmark driver sees it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One iteration of the flat tier's kernel benchmarks (BenchmarkServedKNN,
# BenchmarkServedRange, BenchmarkFlatFilter, BenchmarkBatchKNN,
# BenchmarkRefineGroup: four refinements one after the other against one
# group of four, at 256 and 1024 points, and BenchmarkEnvelopeRow: the row
# build every insert, bulk load and recovery pays a series), of the
# request front end's (BenchmarkHandlerKNN, BenchmarkHandlerKNNBatch,
# BenchmarkHandlerIngestBatch, BenchmarkHandlerIngest, BenchmarkDecodeBody and
# its wire-format rows), of recovery's (BenchmarkRecover, over the logs a
# server writes), of the WAL's (BenchmarkStoreAppend: a single ingest, a
# 32-series batch and a delete; BenchmarkAppendWALRecord, the record encoder
# on decimal and float64 values), of the reducer's (BenchmarkReduce, BenchmarkReduceMix,
# BenchmarkReduceByStage) and of APLA's convex-hull error table
# (BenchmarkAPLAErrorTable, at 256 and 1024 points): `go test` compiles
# benchmarks but never runs them,
# and these are the per-layer evidence perf PRs quote, so they must keep
# running.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Served|FlatFilter|BatchKNN' -benchtime 1x ./internal/index
	$(GO) test -run '^$$' -bench 'RefineGroup|EnvelopeRow' -benchtime 1x ./internal/ts
	$(GO) test -run '^$$' -bench 'Handler|DecodeBody|Recover' -benchtime 1x ./internal/server
	$(GO) test -run '^$$' -bench 'StoreAppend' -benchtime 1x ./internal/wal
	$(GO) test -run '^$$' -bench 'AppendWALRecord' -benchtime 1x ./internal/tsio
	$(GO) test -run '^$$' -bench 'Reduce' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'APLAErrorTable' -benchtime 1x ./internal/reduce

# Before believing an end-to-end pair: bench/loadgen links internal/index and
# internal/server, so a product change moves its CPU probe; with main.probe's
# entry at 32 mod 64 instead of 0 mod 64 the probe's median reads ~10 % lower
# on this host and every normalised timing ~10 % worse (verify skill, "Served
# search"). Prints the address and fails unless it is 0 mod 64. Not part of
# `make ci`: an accidental alignment must not fail an unrelated PR.
bench-probe:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	(cd bench && $(GO) build -o "$$tmp/loadgen" ./loadgen); \
	addr=$$($(GO) tool nm "$$tmp/loadgen" | awk '$$3 == "main.probe" {print $$1}'); \
	test -n "$$addr" || { echo "FAIL: no main.probe in bench/loadgen"; exit 1; }; \
	phase=$$(( 0x$$addr % 64 )); \
	echo "main.probe at 0x$$addr ($$phase mod 64)"; \
	test $$phase -eq 0 || { echo "FAIL: the loadgen's CPU probe is not 64-byte aligned: normalised timings read ~10 % worse than the same server under an aligned build; reshape the change or compare raw samples"; exit 1; }

# Short fuzzing bursts over every fuzz target. Targets are discovered with
# `go test -list`, so the list cannot drift when targets are added or
# renamed; zero matches fails loudly. Override the per-target budget with
# FUZZTIME=10s.
fuzz:
	GO="$(GO)" sh scripts/fuzz.sh $(FUZZTIME)

# Regenerate every paper table and figure at the default reduced scale as
# one Markdown report.
report:
	$(GO) run ./cmd/sapla-experiments > REPORT.md

clean:
	$(GO) clean ./...
