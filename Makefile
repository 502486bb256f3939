# Build and verification tiers. `make check` is the full local gate: a
# gofmt check that fails on any unformatted file, static vetting, the
# complete test suite under the race detector (which covers
# the kernel stress tests, the parallel-sweep determinism proof, the
# durability, oracle, service, chaos, fabric and fleet suites, and the
# subprocess kill-and-resume tests), the allocation guards without it
# (they skip themselves under the race detector), short fuzz smokes of the trace parser,
# the journal replayer, the job-spec decoder, the client's SSE event-stream
# parser, the policy-registry wire and text forms, the result codec, the sweep-result envelope codec, the fabric
# shard-plan ledger, and the cache-key hasher against its fmt reference,
# the benchmark's own tests, which check its output against committed
# digests, and the serial-throughput guard, a root-package Go benchmark.

GO ?= go

.PHONY: build test check fmt vet race alloc fuzz-smoke perfbench bench-guard

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt -l lists every file whose formatting differs; any output, or a
# file gofmt cannot parse, fails.
fmt:
	@out="$$(gofmt -l .)" && test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

# -count=1 keeps the test cache from standing in for a rerun.
race:
	$(GO) test -race -count=1 ./...

# The allocation guards (every test named *Alloc*) run here without the
# race detector. Race-detector builds allocate more, so most skip
# themselves under it; the two whose counts it leaves alone (the sweep
# envelope's decode bytes and its allocations per cell) run in both.
alloc:
	$(GO) test -run 'Alloc' -count=1 ./...

fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzRead -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/journal/
	$(GO) test -run=^$$ -fuzz=FuzzJobSpecDecode -fuzztime=10s ./internal/service/
	$(GO) test -run=^$$ -fuzz=FuzzTokenFileParse -fuzztime=10s ./internal/service/
	$(GO) test -run=^$$ -fuzz=FuzzEventStream -fuzztime=10s ./internal/service/
	$(GO) test -run=^$$ -fuzz=FuzzParamsDecode -fuzztime=10s .
	$(GO) test -run=^$$ -fuzz=FuzzPolicyRefText -fuzztime=10s .
	$(GO) test -run=^$$ -fuzz=FuzzResultCodec -fuzztime=10s .
	$(GO) test -run=^$$ -fuzz=FuzzSweepResultCodec -fuzztime=10s .
	$(GO) test -run=^$$ -fuzz=FuzzShardPlanDecode -fuzztime=10s ./internal/fabric/
	$(GO) test -run=^$$ -fuzz=FuzzFleetSpecDecode -fuzztime=10s ./internal/fleet/
	$(GO) test -run=^$$ -fuzz=FuzzRecorderStream -fuzztime=10s ./internal/daq/
	$(GO) test -run=^$$ -fuzz=FuzzHasherField -fuzztime=10s ./internal/sim/

# The benchmark module's tests: every workload runs at a small size and its
# output must match perfbench/digests.json, so a simulator change that
# alters results fails here instead of leaving the digests stale.
perfbench:
	cd perfbench && $(GO) test ./...

# Serial-throughput regression guard: BenchmarkSerialGuard times the
# Table 2 reference grid once on one worker, after a warm-up, and fails
# below its committed floor in cells/s. It also prints the allocation per
# cell (B/cell, allocs/cell), the figure perfbench's alloc_mb_per_cell
# judges, and BenchmarkFleetSweep, run once after its own warm-up, prints
# the same two figures for a 200-device fleet of the whole policy mix on
# every core. Benchmarks never run under `go test ./...`, so the timing
# stays out of the test tiers.
bench-guard:
	$(GO) test -run '^$$' -bench '^BenchmarkSerialGuard$$' -benchtime 1x -count 1 .
	$(GO) test -run '^$$' -bench '^BenchmarkFleetSweep$$' -benchtime 1x -count 1 ./internal/fleet/

check: fmt vet race alloc fuzz-smoke perfbench bench-guard
	@echo "check: all tiers passed"
