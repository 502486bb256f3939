# Build and verification tiers. `make check` is the full local gate:
# static vetting, the complete test suite under the race detector, short
# fuzz smokes of the trace parser, the journal replayer, the job-spec
# decoder, the policy-registry wire form, and the fabric shard-plan ledger,
# the kernel stress tests under -race, the parallel-sweep determinism proof
# under -race, the durability (checkpoint/resume/retry) suite under -race,
# the oracle/policy-zoo differential suite under -race, the sweep-service
# suite under -race, the service chaos harness (seeded disk faults +
# kill/restart) under -race, the distributed-fabric chaos suite (peer
# SIGKILL, network faults, coordinator kill+resume, steal races) under
# -race, the fleet population engine (generator determinism, feasibility
# pre-pass, multi-mode byte identity, kill+resume) under -race, and the
# benchmark's own tests, which check its output against committed digests.

GO ?= go

.PHONY: build test check vet race fuzz-smoke stress sweep-race telemetry-race durability-race oracle-race service-race chaos-race fabric-race fleet-race perfbench bench-sweep bench-guard

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzRead -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/journal/
	$(GO) test -run=^$$ -fuzz=FuzzJobSpecDecode -fuzztime=10s ./internal/service/
	$(GO) test -run=^$$ -fuzz=FuzzTokenFileParse -fuzztime=10s ./internal/service/
	$(GO) test -run=^$$ -fuzz=FuzzParamsDecode -fuzztime=10s .
	$(GO) test -run=^$$ -fuzz=FuzzShardPlanDecode -fuzztime=10s ./internal/fabric/
	$(GO) test -run=^$$ -fuzz=FuzzFleetSpecDecode -fuzztime=10s ./internal/fleet/
	$(GO) test -run=^$$ -fuzz=FuzzRecorderStream -fuzztime=10s ./internal/daq/

stress:
	$(GO) test -race -run 'Chaos|SpawnMidRun' -v ./internal/kernel/

# The parallel sweep engine's byte-identity guarantee, exercised with the
# race detector watching the worker pool and cache.
sweep-race:
	$(GO) test -race -run 'Sweep|Cache' -v . ./internal/sweep/

# The telemetry layer's concurrency contract: shared instruments hammered
# from many goroutines, the exporter golden output, and the zero-alloc
# disabled path — all under the race detector, with the public wrapper's
# end-to-end HTTP tests riding along.
telemetry-race:
	$(GO) test -race -count=1 -run 'Telemetry|Concurrent|Prometheus|Progress' -v . ./internal/telemetry/ ./internal/sweep/

# The durability layer under the race detector: journal framing and
# torn-tail recovery, kill-and-resume byte identity, retry/backoff of
# transient faults, per-cell deadline budgets, and cache quarantine.
durability-race:
	$(GO) test -race -count=1 -run 'Durable|Resume|Retry|Timeout|Journal|Deadline|Corrupt|Spill|Transient' -v . ./internal/sweep/ ./internal/journal/ ./internal/expt/ ./internal/telemetry/

# The optimal-schedule oracle and the deadline-feasible policy zoo under
# the race detector: the randomized differential suite (oracle lower-bounds
# every policy, OA/AVR/BKP never miss), the OptSpeeds floor-feasibility
# property tests, the deadline boundary tests, and the zoo comparison
# experiment's acceptance run.
oracle-race:
	$(GO) test -race -count=1 -run 'Oracle|Differential|OptSpeeds|Zoo|Deadline' -v ./internal/policy/ ./internal/expt/

# The sweep service under the race detector: concurrent submit/cancel/
# drain, queue-full backpressure (429 + Retry-After), version-mismatch
# admission, restart resumption, and the SIGKILL-the-daemon subprocess
# proof of byte-identical resume.
service-race:
	$(GO) test -race -count=1 -v ./internal/service/

# The service chaos harness under the race detector: seeded disk faults
# under every journal, manifest, and result write, across restarts,
# SIGKILLs, preemptions, and retention passes — every job must end
# byte-identical to a clean run or with a structured failure, and the
# manifest compaction raced against live submissions.
chaos-race:
	$(GO) test -race -count=1 -run 'Chaos|CompactionRace|GC|Preempt|EventsSurvive' -v ./internal/service/
	$(GO) test -race -count=1 -v ./internal/fault/

# The distributed sweep fabric under the race detector: shard round-trip
# byte identity, leased re-dispatch, work-stealing from stragglers, seeded
# network chaos, peer SIGKILL mid-shard, coordinator SIGKILL + ledger
# resume, and the fleet falling back to local execution with every peer
# down. Every merged result must be byte-identical to the serial sweep.
fabric-race:
	$(GO) test -race -count=1 -v ./internal/fabric/
	$(GO) test -race -count=1 -run 'Shard|Merge' -v .

# The fleet population engine under the race detector: spec validation,
# seeded generator determinism, the schedulability pre-pass, the
# serial/parallel/fabric byte-identity proof, and the SIGKILL + resume
# subprocess test.
fleet-race:
	$(GO) test -race -count=1 -v ./internal/fleet/

# The benchmark module's tests: every workload runs at a small size and its
# output must match perfbench/digests.json, so a simulator change that
# alters results fails here instead of leaving the digests stale.
perfbench:
	cd perfbench && $(GO) test ./...

# Worker-count ladder (1/2/4/NumCPU) over the full Table 2 grid, plus
# fabric legs coordinating 1/2/4 in-process peers, recorded to
# BENCH_sweep.json (also verifies every merge against the serial
# baseline).
bench-sweep:
	$(GO) run ./cmd/benchsweep -out BENCH_sweep.json

# Serial-throughput regression guard: reruns the reference grid on one
# worker and fails if cells/sec drops below half the committed
# BENCH_sweep.json figure. Rerun `make bench-sweep` to re-baseline after an
# intentional change.
bench-guard:
	$(GO) run ./cmd/benchsweep -guard -baseline BENCH_sweep.json

check: vet race fuzz-smoke stress sweep-race telemetry-race durability-race oracle-race service-race chaos-race fabric-race fleet-race perfbench bench-guard
	@echo "check: all tiers passed"
