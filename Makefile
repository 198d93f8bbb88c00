GO ?= go
FUZZTIME ?= 10s

.PHONY: check build vet fmt-check test race fuzz gen-check sched-race plan-race replica-race bench bench-all bench-smoke bench-gate bench-module loc

# check is the CI gate: compile everything, vet, check formatting, run the
# full test suite with the race detector (the scheduler and
# backend-cancellation tests are concurrency tests and only count when
# raced), smoke the fuzz targets, check the generated assembly is what its
# generator emits, then vet and test the nested benchmark module, the only
# code that links some of the core/cpu seams and which `./...` from the
# root does not reach.
check: build vet fmt-check race fuzz gen-check bench-module

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would change any file, and names it.
fmt-check:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# sched-race runs the multi-class serving path's property tests twice
# under the race detector: priority aging, deadline admission and
# shed-the-tail are timing-sensitive and only count when raced and
# repeated.
sched-race:
	$(GO) test -race ./internal/sched/... -count=2

# plan-race races the planner's concurrent plan/dispatch/feedback
# surfaces (EWMA corrections, the joules ledger, stats snapshots) the
# same way.
plan-race:
	$(GO) test -race ./internal/plan/... -count=2

# replica-race is the replicated CA suite under the race detector: the
# WAL streaming / snapshot catch-up / fencing property tests, the WAL
# tailing and netproto failover-client layers beneath them, and the two
# gating drills — the rolling restart of a primary and two followers
# (zero dropped in-flight auths) and the kill-promote failover (no
# acked-write loss, nonce single-use across promotion).
replica-race:
	$(GO) test -race ./internal/replica/... ./internal/durable/... ./internal/netproto/... -count=2
	$(GO) test -race ./cmd/rbc-server -run 'TestRollingRestartDrill|TestKillPromoteFailover' -count=2

# bench-module vets and tests the wire-to-wire benchmark, a module of its
# own (benchmark/go.mod) that `./...` from the root does not reach. It
# wraps this module's seams from outside — core.Journal, the listener,
# the trace ring — so a change to any of them fails here, in CI, rather
# than in the perf pipeline.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# fuzz smokes every fuzzer in the module (fuzzlist_test.go fails when one
# is missing here): every decoder a peer's bytes reach — the frame reader
# both protocols share (internal/wire) at both caps, netproto's hello,
# challenge, result and error payloads, the replication message set, the
# WAL record decoder, the snapshot and enrolment-file decoder and the PUF
# image codec — and the hex parser. Then the differential fuzzers: the
# two batch kernels (8-way Keccak on every implementation the CPU
# supports, 4-way multi-buffer SHA-1) and the 256-lane bit-sliced SHA-3
# the benchmark still times, each against its scalar reference; the
# scalar SHA3-256, its fixed-padding seed digest and SHAKE128 against
# crypto/sha3; the 256-bit arithmetic against math/big; then the Gray
# iterator's revolving-door step against its ranking. FUZZTIME each;
# -run='^$$' skips the unit tests so only fuzzing runs.
fuzz:
	$(GO) test ./internal/wire -run='^$$' -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/netproto -run='^$$' -fuzz=FuzzDecodeHello -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/netproto -run='^$$' -fuzz=FuzzDecodeChallenge -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/netproto -run='^$$' -fuzz=FuzzDecodeResult -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/netproto -run='^$$' -fuzz=FuzzDecodeError -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/replica -run='^$$' -fuzz=FuzzReplicaMsg -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/durable -run='^$$' -fuzz=FuzzWALDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/durable -run='^$$' -fuzz=FuzzSnapshot -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/puf -run='^$$' -fuzz=FuzzImageCodec -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/u256 -run='^$$' -fuzz=FuzzFromHex -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/bitslice -run='^$$' -fuzz=FuzzSHA3Wide -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sha1 -run='^$$' -fuzz=FuzzSHA1Multi4 -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/keccak -run='^$$' -fuzz=FuzzSeedDigests8 -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/keccak -run='^$$' -fuzz=FuzzSum256VsStdlib -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/keccak -run='^$$' -fuzz=FuzzSum256SeedVsStdlib -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/keccak -run='^$$' -fuzz=FuzzSHAKE128VsStdlib -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/u256 -run='^$$' -fuzz=FuzzArithmetic -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/iterseq -run='^$$' -fuzz=FuzzGrayStep -fuzztime=$(FUZZTIME)

# gen-check regenerates the AVX-512 Keccak assembly and fails when the
# committed file differs from what the committed generator emits.
gen-check:
	$(GO) run ./internal/keccak/x8gen | cmp - internal/keccak/keccakx8_amd64.s

# bench measures the host search hot path (scalar vs each algorithm's
# batch kernel, every alg x iteration method; five sweeps, each row's
# median kept and its lowest as the gate's floor) and refreshes
# BENCH_host.json plus the planner-vs-fixed-backends point
# BENCH_planner.json, the committed perf-trajectory points. Serving
# latency is measured wire to wire by the benchmark module
# (benchmark/run.sh).
bench:
	$(GO) test ./internal/core -run='^$$' -bench=ShellHost -benchmem
	$(GO) run ./cmd/rbc-bench -experiment hostthroughput -json BENCH_host.json
	$(GO) run ./cmd/rbc-bench -experiment planner -trials 32 -json BENCH_planner.json

# bench-gate re-measures host throughput (one sweep) and fails when any
# kernel's speedup ratio regresses more than 15% below its floor in the
# committed BENCH_host.json, the lowest of the five sweeps `make bench`
# merges (ratios transfer across machines; absolute seeds/sec do not).
bench-gate:
	$(GO) run ./cmd/rbc-bench -experiment hostthroughput -baseline BENCH_host.json

# bench-all runs every benchmark in the repository.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke is the CI guard: one iteration of the hot-path benches
# (and of the WAL's group-commit bench), so a compile break or panic in
# the batched engine or the commit barrier fails loudly without paying
# for stable timings, then the baseline gate re-measures host throughput
# and fails on a >15% speedup-ratio regression against the committed
# BENCH_host.json's floors.
bench-smoke:
	$(GO) test ./internal/core -run='^$$' -bench=ShellHost -benchtime=1x -benchmem
	$(GO) test ./internal/bitslice -run='^$$' -bench=WideKernels -benchtime=1x -benchmem
	$(GO) test ./internal/durable -run='^$$' -bench=WALCommitParallel -benchtime=1x -benchmem
	$(GO) run ./cmd/rbc-bench -experiment hostthroughput -baseline BENCH_host.json

# loc prints the number ROADMAP tracks: non-test Go source lines outside
# the benchmark module.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' -not -name '*_test.go' | xargs cat | wc -l
