package chaos_test

import (
	"fmt"
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/partition"
	"freepart.dev/freepart/internal/sched"
	"freepart.dev/freepart/internal/vclock"
	"freepart.dev/freepart/internal/workload"
)

// partitionSoakRun serves a Zipf-keyed detection stream over 4 shards with
// the full partition plane armed — range metadata with static preferred
// slots, placement memory, warm/cold pricing, and a PartitionAware placer —
// while shard crashShard runs the crash loop (gen 0 only) and every shard
// sees background-intensity faults. Halfway through, the control plane
// splits the Zipf head's partition and rebalances it onto shard 3,
// migrating the range's live keyed sessions through the checkpoint log.
// Serving is strictly sequential, so the entire run — chaos draws,
// failover, placement, the drill — is a pure function of (seed,
// crashShard).
func partitionSoakRun(t *testing.T, seed int64, crashShard int) ([]apps.DetectionResult, *core.Executor, []byte, []byte) {
	t.Helper()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	root := chaos.Scaled(seed, 0.03)
	crash := root
	crash.Mem.FaultProb = 1
	planOf := func(id, gen int) chaos.Plan {
		if id == crashShard && gen == 0 {
			return crash.ForShard(id)
		}
		return root.ForShard(id)
	}
	ex, err := core.NewExecutor(4, core.DynamicShards(reg, cat, crashLoopSoakConfig, planOf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 1, DrainOnDegrade: true})

	const users = 24
	meta := partition.New(partition.Range, 4, users)
	for i := 0; i < 4; i++ {
		meta.Prefer(i, i)
	}
	mem := partition.NewMemory()
	topo := sched.Topology{ShardsPerSocket: 2}
	sched.New(ex, sched.Policy{MinShards: 4, MaxShards: 4},
		sched.PartitionAware{Meta: meta, Memory: mem, Topo: topo})

	srv, err := apps.ProvisionDetection(ex)
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.PartitionConfig{
		Meta: meta, Memory: mem, Cost: vclock.Default(),
		WorkingSet: 16 << 10, Class: "detect",
	}
	reqs := apps.GenDetectionRequests(19, 48)
	keys := workload.ZipfPopulation{Users: users, S: 1.25, Seed: seed}.Keys(len(reqs))

	results := srv.ServeSeqKeyed(reqs[:24], keys[:24], cfg)
	// Mid-window drill: split the Zipf head's partition and move the upper
	// half (live sessions included) onto shard 3.
	if _, _, err := sched.RebalancePartition(ex, meta, mem, topo, vclock.Default(),
		0, 3, 16<<10); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	results = append(results, srv.ServeSeqKeyed(reqs[24:], keys[24:], cfg)...)
	return results, ex, mem.Encode(), meta.Encode()
}

// TestPartitionSoak is the partition-plane soak: a Zipf-skewed keyed
// population, a crash-looping shard, and a mid-window hot-range rebalance,
// all at once. For every seed (a) outputs must match the fault-free
// baseline — placement, failover, and the drill change where work runs,
// never what it computes; (b) the plane must actually engage: warm hits and
// cold misses both observed, the crash shard drained, exactly one partition
// split recorded; (c) replaying the same seed must reproduce the run
// byte-for-byte — results, per-incarnation injection logs, failover events,
// metrics (warm/cold counters included), the latency distribution, the
// placement memory, and the partition metadata. Run under -race in CI
// (make partitionsoak / make check).
func TestPartitionSoak(t *testing.T) {
	const crashShard = 1

	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	bex, err := core.NewExecutor(4, core.ProtectedShards(reg, cat, core.Default()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bex.Close)
	bsrv, err := apps.ProvisionDetection(bex)
	if err != nil {
		t.Fatal(err)
	}
	baseline := bsrv.ServeSeq(apps.GenDetectionRequests(19, 48))
	for i, r := range baseline {
		if r.Err != nil {
			t.Fatalf("baseline request %d: %v", i, r.Err)
		}
	}

	seeds := []int64{13, 37}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			results, ex, memEnc, metaEnc := partitionSoakRun(t, seed, crashShard)
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("request %d: %v", i, r.Err)
				}
				if r.Objects != baseline[i].Objects {
					t.Fatalf("request %d objects = %d, want baseline %d", i, r.Objects, baseline[i].Objects)
				}
			}
			m := ex.Metrics().Snapshot()
			if m.WarmHits == 0 || m.ColdMisses == 0 {
				t.Fatalf("warm/cold = %d/%d; the partition plane never engaged", m.WarmHits, m.ColdMisses)
			}
			if m.ShardDrains == 0 {
				t.Fatal("crash shard never drained; the soak exercised no failover")
			}
			if m.PartitionSplits != 1 {
				t.Fatalf("PartitionSplits = %d, want exactly the drill's split", m.PartitionSplits)
			}

			// Replay: the whole run must reproduce byte-for-byte.
			replay, rex, rMemEnc, rMetaEnc := partitionSoakRun(t, seed, crashShard)
			if !reflect.DeepEqual(replay, results) {
				t.Fatal("replay outputs diverged")
			}
			if string(memEnc) != string(rMemEnc) {
				t.Fatalf("placement memory diverged across replays:\n%s\n%s", memEnc, rMemEnc)
			}
			if string(metaEnc) != string(rMetaEnc) {
				t.Fatalf("partition metadata diverged across replays:\n%s\n%s", metaEnc, rMetaEnc)
			}
			for id := 0; id < 4; id++ {
				if a, b := incarnationLogs(ex, id), incarnationLogs(rex, id); !reflect.DeepEqual(a, b) {
					t.Fatalf("shard %d injection logs diverged across replays:\n%v\n%v", id, a, b)
				}
				if a, b := ex.FailoverEventsFor(id), rex.FailoverEventsFor(id); !reflect.DeepEqual(a, b) {
					t.Fatalf("shard %d failover events diverged across replays:\n%v\n%v", id, a, b)
				}
			}
			rm := rex.Metrics().Snapshot()
			if !reflect.DeepEqual(m, rm) {
				t.Fatalf("metrics diverged across replays:\n%+v\n%+v", m, rm)
			}
			if a, b := ex.Latencies().String(), rex.Latencies().String(); a != b {
				t.Fatalf("latency distributions diverged across replays:\n%s\n%s", a, b)
			}
		})
	}
}

// TestPartitionZeroCost pins the zero-cost guard: with a disabled
// PartitionConfig and no keyed placement hook installed, serving a keyed
// stream is bit-identical to the plain serving path — results, per-shard
// clocks, metrics, injection logs, failover events, and the latency
// distribution all match. The partition plane must cost nothing when off.
func TestPartitionZeroCost(t *testing.T) {
	build := func() (*core.Executor, *apps.DetectionServer) {
		t.Helper()
		reg := all.Registry()
		cat := analysis.New(reg, nil).Categorize()
		root := chaos.Scaled(23, 0.03)
		planOf := func(id, gen int) chaos.Plan { return root.ForShard(id) }
		ex, err := core.NewExecutor(4, core.DynamicShards(reg, cat, crashLoopSoakConfig, planOf))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Close)
		ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 1, DrainOnDegrade: true})
		srv, err := apps.ProvisionDetection(ex)
		if err != nil {
			t.Fatal(err)
		}
		return ex, srv
	}
	reqs := apps.GenDetectionRequests(29, 32)
	keys := workload.ZipfPopulation{Users: 16, S: 1.2, Seed: 29}.Keys(len(reqs))

	plainEx, plainSrv := build()
	plain := plainSrv.ServeSeq(reqs)
	keyedEx, keyedSrv := build()
	keyed := keyedSrv.ServeSeqKeyed(reqs, keys, apps.PartitionConfig{})

	if !reflect.DeepEqual(plain, keyed) {
		t.Fatal("disabled partition plane changed served results")
	}
	for id := 0; id < 4; id++ {
		if a, b := plainEx.Shard(id).K.Clock.Now(), keyedEx.Shard(id).K.Clock.Now(); a != b {
			t.Fatalf("shard %d clock diverged: %v vs %v — the disabled plane charged something", id, a, b)
		}
		if a, b := incarnationLogs(plainEx, id), incarnationLogs(keyedEx, id); !reflect.DeepEqual(a, b) {
			t.Fatalf("shard %d injection logs diverged:\n%v\n%v", id, a, b)
		}
		if a, b := plainEx.FailoverEventsFor(id), keyedEx.FailoverEventsFor(id); !reflect.DeepEqual(a, b) {
			t.Fatalf("shard %d failover events diverged:\n%v\n%v", id, a, b)
		}
	}
	if a, b := plainEx.Metrics().Snapshot(), keyedEx.Metrics().Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("metrics diverged:\n%+v\n%+v", a, b)
	}
	if a, b := plainEx.Latencies().String(), keyedEx.Latencies().String(); a != b {
		t.Fatalf("latency distributions diverged:\n%s\n%s", a, b)
	}
}
