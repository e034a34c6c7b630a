GO ?= go

# VERSION is stamped into the binaries (dps_build_info, -version) via
# internal/version. Local builds of a dirty tree report e.g.
# `v0.3-2-gabc123-dirty`; outside a tag history it falls back to the
# short commit, and outside git entirely to "dev".
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS = -ldflags "-X dps/internal/version.Version=$(VERSION)"

.PHONY: all build vet staticcheck fma-check test race bench bench-smoke bench-json profile-decide alloc-check chaos fuzz-smoke mutation-smoke trace-smoke watch-smoke failover-smoke blackbox-smoke ci

all: ci

build:
	$(GO) build $(LDFLAGS) ./...

vet:
	$(GO) vet ./...

# staticcheck runs only where the tool is installed; CI images without it
# fall through to vet alone rather than failing the gate.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# fma-check cross-compiles the eight decision packages for the five
# architectures whose compilers fuse x*y + z (arm64, ppc64le, s390x,
# riscv64, loong64) and fails on any floating-point fused multiply-add:
# every product on the decision path is rounded before it is added, so
# caps are bitwise the same on every CPU. A cold cache builds the standard
# library for each architecture once; warm, it takes about a second.
fma-check:
	./scripts/fma_check.sh

test:
	$(GO) test ./...

# The race detector multiplies runtime ~10x; -short skips the longest
# simulation suites while still exercising every concurrent code path
# (daemon, agent, telemetry registry, flight recorder, series sampler)
# plus FuzzRoundEngine's seed corpus, the differential check of every
# round path against the reference, and the skip/restore-vs-reference
# equivalence suites, which run in full under -short.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# bench-smoke proves the default, reference (refresh=1), dirty-fraction
# and phased rows all complete a cluster-scale round with -benchmem
# reporting, and that the BENCH_decide.json emitter parses the output;
# it also runs the replication-round, sampler-scrape and /metrics
# exposition benchmarks (all-distinct caps and caps from 256 values) once
# at bench's ops16k sizes, the /status and /debug/rounds?n=1 views at
# 16 384 units, one agentless steady 16k DecideOnce (the daemon's
# per-round bookkeeping), and a 256-agent lock-step round over loopback
# TCP that reports its reads per connection-round (3: one per frame), so
# they cannot rot. It is a compile-and-run check, not a timing run. The
# smoke JSON goes to an untracked path so it never clobbers the committed
# timing record.
bench-smoke:
	BENCHTIME=1x OUT=BENCH_decide.smoke.json ./scripts/bench_decide.sh
	$(GO) test -run xxx -bench 'BenchmarkReplicateRound/N=16384$$' -benchtime 1x -benchmem ./internal/daemon/
	$(GO) test -run xxx -bench 'BenchmarkLoopbackRound/agents=256$$' -benchtime 20x -benchmem ./internal/daemon/
	$(GO) test -run xxx -bench 'BenchmarkDecideOnce/units=16384$$' -benchtime 1x -benchmem ./internal/daemon/
	$(GO) test -run xxx -bench 'BenchmarkSampleOnce/series=65743$$' -benchtime 1x -benchmem ./internal/telemetry/series/
	$(GO) test -run xxx -bench 'BenchmarkWritePrometheus/series=65743' -benchtime 1x -benchmem ./internal/telemetry/
	$(GO) test -run xxx -bench 'BenchmarkRoundViews$$' -benchtime 1x -benchmem ./internal/daemon/

# bench-json refreshes the committed BENCH_decide.json with real timings.
bench-json:
	./scripts/bench_decide.sh

# profile-decide takes a CPU profile of the phased 16k round — the round
# the end-to-end benchmark's dense workloads put on the controller —
# without touching bench/. It leaves decide.prof and the test binary
# dps.test in the repository root, both git-ignored; read them with
# `go tool pprof -top dps.test decide.prof`.
profile-decide:
	$(GO) test -run xxx -bench 'DecideScaling/N=16384/phased' -benchtime 1000x -cpuprofile decide.prof .

# chaos runs the fault scenarios under the race detector: FuzzServer's
# seeds and committed corpus (agents that drop, rejoin and fail pushes,
# report frames cut mid-write, meter read errors, energy counters
# restarted at 0, kills with restores and standby takeovers, each round
# held to an uninterrupted engine model and to what the scripted devices
# enforce), the TestChaos* seed runs, and TestFailoverSmoke, the one
# wall-clock failover over real TCP. `go test -run` passes when its
# pattern matches nothing, so the target also fails unless every test it
# names passed. FuzzServer's seeds also run inside `make ci` (race is
# -short, which skips the failover).
CHAOS_TESTS = FuzzServer TestChaosWallClock TestChaosDeterministicKillRestart TestChaosKillRestore TestChaosStandbyTakeover TestFailoverSmoke
chaos:
	@out=$$($(GO) test -race -count=1 -v -run "^($$(echo $(CHAOS_TESTS) | tr ' ' '|'))$$" ./internal/daemon/ 2>&1); \
	status=$$?; echo "$$out" | grep -E '^(--- |ok|FAIL|panic)'; \
	[ $$status -eq 0 ] || exit $$status; \
	for t in $(CHAOS_TESTS); do \
		echo "$$out" | grep -q "^--- PASS: $$t " || { echo "chaos: $$t did not run" >&2; exit 1; }; \
	done

# alloc-check is the allocation-regression gate: a warm DecideStats
# round must not allocate — bare (masked and maskless), with a disabled
# tracer attached, with the full self-monitoring stack (series sampler +
# watchdog audits) running beside the daemon's decision loop, and on the
# black-box recorder's warm append path — nor may a warm session's frames
# on either end (server ingest; agent report, apply and echo) — and the
# bytes a whole warm DecideOnce allocates (round record, metrics, audit,
# black box, cap push) must not grow with the unit or connection count,
# nor may the allocations of a cold image decode, of a restore followed by
# the first snapshot-writing round, or of a /metrics scrape with the
# series count (in the registry) or the unit count (a dpsd scrape).
alloc-check:
	$(GO) test -run 'TestDecideStatsSteadyStateZeroAlloc|TestDecideTracerOffZeroAlloc' -count=1 ./internal/core
	$(GO) test -run 'TestDecideSamplerSteadyStateZeroAlloc|TestIngestSteadyStateZeroAlloc|TestAgentRoundSteadyStateZeroAlloc|TestReplicateSteadyStateZeroAlloc|TestDecideOnceAllocIndependentOfUnits|TestRestoreThenSnapshotAllocsIndependentOfUnits|TestMetricsScrapeAllocsIndependentOfUnits' -count=1 ./internal/daemon
	$(GO) test -run 'TestDecodeAllocsIndependentOfUnits|TestEncodeColdAllocs|TestEncodeReuseNoAlloc' -count=1 ./internal/snapshot
	$(GO) test -run 'TestBlackboxWriterSteadyStateZeroAlloc' -count=1 ./internal/blackbox
	$(GO) test -run 'TestWritePrometheusAllocsIndependentOfSeries' -count=1 ./internal/telemetry

# fuzz-smoke gives every fuzz target a short shake on every CI run: the
# wire-protocol decoders (the corpus under internal/proto/testdata grows
# across runs), the signal detectors, the round engine's differential
# harness (every lane — skipping, nil-mask, restored, input-replayed —
# against the reference under scripted readings, report bands, health
# flaps, budget moves, short rounds and cuts), the daemon's scripted rig
# (a real dpsd, its agents on scripted devices, restarts and standby
# takeovers, against the engine model and what the devices enforce), the
# restore gate (a refused image touches nothing, an accepted one is
# restored whole), and the number appender the views format with (both
# forms against strconv and encoding/json).
# `go test` accepts one -fuzz pattern per invocation, hence one command
# per target (anchored: -fuzz must match exactly one target). The
# section framing is fuzzed once, in its own package; the snapshot,
# round-input and black-box targets are the payload fuzzers on top of it.
fuzz-smoke:
	$(GO) test -fuzz='FuzzReadHello$$' -fuzztime=5s -run xxx ./internal/proto/
	$(GO) test -fuzz='FuzzReadBatchFrame$$' -fuzztime=5s -run xxx ./internal/proto/
	$(GO) test -fuzz='FuzzSessionReadFrame$$' -fuzztime=5s -run xxx ./internal/proto/
	$(GO) test -fuzz='FuzzSectionWalk$$' -fuzztime=5s -run xxx ./internal/section/
	$(GO) test -fuzz='FuzzSnapshotDecode$$' -fuzztime=5s -run xxx ./internal/snapshot/
	$(GO) test -fuzz='FuzzRoundInputDecode$$' -fuzztime=5s -run xxx ./internal/snapshot/
	$(GO) test -fuzz='FuzzBlackboxDecode$$' -fuzztime=5s -run xxx ./internal/blackbox/
	$(GO) test -fuzz='FuzzCountProminentPeaks$$' -fuzztime=5s -run xxx ./internal/signal/
	$(GO) test -fuzz='FuzzWindowedDerivative$$' -fuzztime=5s -run xxx ./internal/signal/
	$(GO) test -fuzz='FuzzRoundEngine$$' -fuzztime=5s -run xxx ./internal/engine/
	$(GO) test -fuzz='FuzzServer$$' -fuzztime=5s -run xxx ./internal/daemon/
	$(GO) test -fuzz='FuzzRestoreImage$$' -fuzztime=5s -run xxx ./internal/daemon/
	$(GO) test -fuzz='FuzzAppendNumber$$' -fuzztime=5s -run xxx ./internal/telemetry/

# mutation-smoke proves the differential fuzzers' seed corpora are not
# vacuous: in a copy of the tree, each of a few known bugs must make its
# target fail. FuzzRoundEngine: the round's movers never recorded,
# MarkChanged marking nothing, a restore that drops the PRNG register, a
# round input that ships no pushed unit, a ring that settles this round
# skipping classification. FuzzServer: a refused reading that refreshes
# the health clock, an omission that refreshes a refused unit's clock, a
# heartbeat that does not refresh, a failed push committed as enforced, a
# restore that drops markChangedLocked, a closed connection that leaves
# its units fresh, a meter recovery read averaged over one interval
# instead of the gap, a counter gone backwards read as restarted from 0,
# a batch reader that keeps the whole records of a cut frame.
# TestFitExhaustive: a budget fit that drops the pin,
# drops the clamp, or rounds to the nearest deciwatt instead of down.
# TestWatchBudgetFaultFiresWithinOneRound: a restore that keeps the
# image's budget instead of the configured one, so no alert fires.
mutation-smoke:
	./scripts/mutation_smoke.sh

# trace-smoke runs a short traced simulation and validates the exported
# Chrome trace_event JSON covers every pipeline stage in every round.
trace-smoke:
	$(GO) test -run TestTraceSmoke -count=1 ./internal/sim/

# watch-smoke is the self-monitoring end-to-end gate: a simulated pair
# experiment with a scheduled budget fault must fire budget_conservation
# within one round of the fault and resolve within one round of recovery,
# and a clean run must end with every builtin audit inactive; the batch
# engine's scheduled budget fault must do the same; and dpsd restored under a
# lower budget than its image's must fire budget_conservation from its
# first round and resolve in the round its agent joins. The target fails
# unless every test it names passed (`go test -run` passes on a pattern
# that matches nothing).
WATCH_TESTS = TestWatchSmoke TestWatchOracleCleanRun TestWatchFiresOnBatchBudgetFault TestWatchBudgetFaultFiresWithinOneRound
watch-smoke:
	@out=$$($(GO) test -count=1 -v -run "^($$(echo $(WATCH_TESTS) | tr ' ' '|'))$$" ./internal/sim/ ./internal/sched/ ./internal/daemon/ 2>&1); \
	status=$$?; echo "$$out" | grep -E '^(--- |ok|FAIL|panic)'; \
	[ $$status -eq 0 ] || exit $$status; \
	for t in $(WATCH_TESTS); do \
		echo "$$out" | grep -q "^--- PASS: $$t " || { echo "watch-smoke: $$t did not run" >&2; exit 1; }; \
	done

# failover-smoke is the high-availability end-to-end gate: an in-process
# primary serving real reconnecting agents over TCP, a warm standby
# following its replication stream, the replication link closed under it
# once the cluster is steady, and convergence of every agent onto the standby — with the
# standby's watchdog silent across the handover.
failover-smoke:
	$(GO) test -run TestFailoverSmoke -count=1 ./internal/daemon/

# blackbox-smoke is the crash-safety gate for the black-box flight
# recorder: a daemon appending rounds is killed with SIGKILL mid-run and
# `dpsctl blackbox dump` must recover every completed round from the
# dead process's on-disk ring (at most the one in-flight round may
# tear).
blackbox-smoke:
	$(GO) test -run 'TestBlackboxSmoke$$' -count=1 -v ./cmd/dpsctl/

# ci is the tier-1 gate: static checks (vet, staticcheck, and no fused
# multiply-add on the decision path), a full build, the complete test
# suite, the race detector over the concurrency-bearing packages, a fuzz
# shake, the mutation smoke, and a smoke run of the scaling benchmark.
# alloc-check, trace-smoke, watch-smoke, failover-smoke and
# blackbox-smoke are not prerequisites: each is a `-run` subset of what
# `test` has just run (none of their tests is skipped outside -short), so
# they stay as developer shortcuts and `ci` runs tier-1 once.
ci: vet staticcheck fma-check build test race fuzz-smoke mutation-smoke bench-smoke
