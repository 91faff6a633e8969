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
	"freepart.dev/freepart/internal/isolation"
)

// tieredSoakConfig is crashLoopSoakConfig under the tiered isolation
// policy: loading and processing stay process-tier (restartable, chaos
// applies), visualizing and storing run as MPK domains (no chaos hook —
// a domain shares the host's fate, so injecting faults there would kill
// the whole shard rather than exercise failover).
func tieredSoakConfig() core.Config {
	cfg := crashLoopSoakConfig()
	cfg.Isolation = isolation.Tiered()
	return cfg
}

// tieredTrackRun is shardedTrackRun with the tiered policy on every shard.
func tieredTrackRun(t *testing.T, seed int64, crashShard int) ([]apps.TrackResult, *core.Executor) {
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
	ex, err := core.NewExecutor(4, core.DynamicShards(reg, cat, tieredSoakConfig, planOf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 1, DrainOnDegrade: true})
	srv := apps.ProvisionTracking(ex)
	return srv.ServeStreams(apps.GenTrackStreams(21, 8, 6)), ex
}

// TestIsolationChaosSoak is the sharded crash-loop soak run under the
// tiered isolation policy: mixed process- and domain-tier boundaries in
// every shard, shard 2's process-tier partitions forced into a crash loop.
// Outputs must match a fault-free tiered baseline (the baseline must also
// be tiered — domain switch costs move the virtual clock, so a nil-policy
// baseline would not be comparable), and replaying a seed must reproduce
// byte-equal injection logs and failover events. Run under -race in CI
// (make check).
func TestIsolationChaosSoak(t *testing.T) {
	const crashShard = 2

	// Fault-free baseline under the same tiered policy, no chaos.
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	bex, err := core.NewExecutor(4, core.ProtectedShards(reg, cat, core.ConfigForIsolation(isolation.Tiered())))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bex.Close)
	baseline := apps.ProvisionTracking(bex).ServeStreams(apps.GenTrackStreams(21, 8, 6))
	for i, r := range baseline {
		if r.Err != nil {
			t.Fatalf("baseline stream %d: %v", i, r.Err)
		}
	}

	seeds := []int64{5, 23, 71}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			results, ex := tieredTrackRun(t, seed, crashShard)
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("stream %d: %v", i, r.Err)
				}
			}
			if !reflect.DeepEqual(results, baseline) {
				t.Fatalf("outputs diverged from fault-free tiered baseline:\nchaos:    %+v\nbaseline: %+v", results, baseline)
			}
			m := ex.Metrics().Snapshot()
			if m.ShardDrains == 0 {
				t.Fatal("crash-loop shard never drained; the soak exercised nothing")
			}

			// Replay: byte-equal injection logs per shard, per incarnation.
			results2, ex2 := tieredTrackRun(t, seed, crashShard)
			if !reflect.DeepEqual(results2, results) {
				t.Fatal("replay outputs diverged")
			}
			for id := 0; id < 4; id++ {
				l1, l2 := incarnationLogs(ex, id), incarnationLogs(ex2, id)
				if !reflect.DeepEqual(l1, l2) {
					t.Fatalf("shard %d injection logs diverged across replays:\n%v\nvs\n%v", id, l1, l2)
				}
			}
			if ev1, ev2 := ex.FailoverEventsFor(crashShard), ex2.FailoverEventsFor(crashShard); !reflect.DeepEqual(ev1, ev2) {
				t.Fatalf("failover event logs diverged:\n%v\nvs\n%v", ev1, ev2)
			}
		})
	}
}
