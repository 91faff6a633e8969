# Standard checks for the FreePart reproduction. `make check` is the gate:
# formatting, vet (the nested perfbench module included), build,
# race-enabled tests, fixed-seed chaos soaks, one run of every server act,
# the BENCH drift gate, and the nested perfbench module's tests.

GO ?= go

.PHONY: check benchcheck perfbenchtest serversmoke fmt vet build test race soak shardsoak autoscalesoak overloadsoak isolationsoak defensesoak graysoak partitionsoak bench serving failover autoscale overload isolation defense gray partition

check: fmt vet build race soak shardsoak autoscalesoak overloadsoak isolationsoak defensesoak graysoak partitionsoak serversmoke benchcheck perfbenchtest

# The experiments that write a committed BENCH_<name>.json.
BENCHES := serving failover autoscale overload isolation defense gray partition

# BENCH drift gate: regenerates every committed BENCH_*.json into a temp
# directory and fails, naming each file, unless every one is byte-identical
# to the committed copy.
benchcheck:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments || exit 1; \
	fail=0; \
	for b in $(BENCHES); do \
		"$$tmp/experiments" -exp $$b -json "$$tmp/BENCH_$$b.json" >/dev/null || { echo "benchcheck: $$b failed to run"; fail=1; continue; }; \
		cmp "$$tmp/BENCH_$$b.json" BENCH_$$b.json || { echo "benchcheck: BENCH_$$b.json drifted; regenerate with make $$b"; fail=1; }; \
	done; \
	[ $$fail -eq 0 ] && echo "benchcheck: all BENCH files byte-identical"

# The nested perfbench module's tests (about 70 s): its bit-equality gates
# pin the virtual metrics a metrics or core change could silently move,
# which vet alone (it only compiles the module) cannot catch.
perfbenchtest:
	cd perfbench && $(GO) test -count=1 ./...

# gofmt cleanliness gate: fails listing any file that gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The root ./... never reaches the nested perfbench module, so vet it
# separately: a report/core API change must not break the benchmark.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# The examples/server modes serversmoke runs: the availability act with the
# serving rows, then the failover, gray, autoscale, overload, isolation,
# defense and partition drills.
SERVER_MODES := "" "-kill-shard 2" "-slow-shard 2@10 -requests 48" "-autoscale -concurrency 8" \
	"-overload 4" "-isolation tiered" "-defense" "-partitions 4 -zipf 1.2"

# Server smoke: builds examples/server and runs every mode once; fails,
# naming the mode, unless each exits 0.
serversmoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/server" ./examples/server || exit 1; \
	for args in $(SERVER_MODES); do \
		echo "--- server $$args"; \
		"$$tmp/server" $$args || { echo "serversmoke: server $$args failed"; exit 1; }; \
	done

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race -count=1 ./...

# Fixed-seed chaos soak: 100 seeds of fault injection over the OMR
# pipeline, asserting zero host crashes and byte-identical outputs.
soak:
	$(GO) test -run TestChaosSoak -count=1 ./internal/chaos/

# Multi-shard chaos soak under the race detector: several seeds across 4
# shards with one shard crash-looping; outputs must match the fault-free
# baseline and per-shard injection logs must replay byte-equal.
shardsoak:
	$(GO) test -race -run TestMultiShardChaosSoak -count=1 ./internal/chaos/

bench:
	$(GO) test -bench=. -benchmem

# Serving-layer scaling sweep: shard counts 1/2/4/8 over the detection
# pipeline, written to BENCH_serving.json (virtual-time RPS + percentiles).
serving:
	$(GO) run ./cmd/experiments -exp serving -json BENCH_serving.json

# Failover drill: the detection stream served undisturbed and with one
# shard killed mid-window, written to BENCH_failover.json (RPS/p99 with
# and without the kill, drains, migrations).
failover:
	$(GO) run ./cmd/experiments -exp failover -json BENCH_failover.json

# Autoscale soak under the race detector: the load ramp scaling a pool in
# both directions while shard 1 crash-loops; outputs must match the
# fixed-pool fault-free baseline and controller decision logs must replay
# byte-equal.
autoscalesoak:
	$(GO) test -race -run TestAutoscaleSoak -count=1 ./internal/chaos/

# Autoscaling drill: the tracking load ramp under fixed pools and the
# control plane, written to BENCH_autoscale.json (p99 and shard-seconds
# versus the fixed n=max pool, scale/rebalance/batch activity).
autoscale:
	$(GO) run ./cmd/experiments -exp autoscale -json BENCH_autoscale.json

# Overload soak under the race detector: a two-tenant load at 4x capacity
# with shard 1 crash-looping; sheds must stay bounded, the light tenant
# must keep getting service, and results, per-shard event subsequences,
# and injection logs must replay byte-equal.
overloadsoak:
	$(GO) test -race -run TestOverloadSoak -count=1 ./internal/chaos/

# Overload drill: the two-tenant tracking load offered at 1/2/4/10x the
# pool's calibrated capacity under the bounded admission queue and deadline
# shedding, admissions ordered FIFO vs weighted fair queueing, written to
# BENCH_overload.json (goodput, shed split, Jain fairness, p99 vs 1x).
overload:
	$(GO) run ./cmd/experiments -exp overload -json BENCH_overload.json

# Isolation soak under the race detector: the multi-shard crash-loop soak
# run under the tiered policy (process-tier loading/processing, MPK-domain
# visualizing/storing); outputs must match the fault-free tiered baseline
# and injection logs must replay byte-equal.
isolationsoak:
	$(GO) test -race -run TestIsolationChaosSoak -count=1 ./internal/chaos/

# Isolation frontier: the 18-CVE corpus replayed under every tier policy
# (paper / tiered / erim / none) plus the serving overhead of each, written
# to BENCH_isolation.json (blocked matrix, critical path, domain switches).
isolation:
	$(GO) run ./cmd/experiments -exp isolation -json BENCH_isolation.json

# Defense soak under the race detector: the adaptive controller's full
# sense/escalate/quarantine/anneal arc driven under background chaos across
# several seeds; decision logs, outcome classes, injection logs, and
# failover events must replay byte-equal.
defensesoak:
	$(GO) test -race -run TestDefenseSoak -count=1 ./internal/chaos/

# Gray-failure soak under the race detector: a crash-looping shard and a
# slow-but-alive shard in the same 4-shard pool with suspicion scoring and
# hedging armed; outputs must match the fault-free baseline and injection
# logs, failover events, suspicion scores, and hedge counters must replay
# byte-equal.
graysoak:
	$(GO) test -race -run TestGraySoak -count=1 ./internal/chaos/

# Gray-failure drill: the detection stream served with one shard alive but
# 10x slow, unmitigated / drain-only / hedge+drain versus fault-free,
# written to BENCH_gray.json (p99 frontier, gray drains, hedge counters,
# extra-work fraction).
gray:
	$(GO) run ./cmd/experiments -exp gray -json BENCH_gray.json

# Partition soak under the race detector: a Zipf-keyed stream over a
# range-partitioned keyed plane with one shard crash-looping and a hot-range
# split drill mid-window; results, placement memory, partition metadata,
# injection logs, failover events, and metrics must replay byte-equal, and
# the zero-cost guard must hold the disabled plane bit-identical.
partitionsoak:
	$(GO) test -race -run 'TestPartitionSoak|TestPartitionZeroCost' -count=1 ./internal/chaos/

# Partition drill: the Zipf visit stream under round-robin / locality /
# partition-aware placement, plus the hot-range melt with and without the
# load-median rebalance, written to BENCH_partition.json (warm-hit ratios,
# p50/p99, sessions moved, split key).
partition:
	$(GO) run ./cmd/experiments -exp partition -json BENCH_partition.json

# Adaptive-defense drill: the 18-CVE campaign replayed against the four
# static presets and the adaptive controller (erim floor), written to
# BENCH_defense.json (containment, controller decisions, steady-state
# overhead after annealing).
defense:
	$(GO) run ./cmd/experiments -exp defense -json BENCH_defense.json
