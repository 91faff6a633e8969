package chaos_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/vclock"
)

// graySoakRun serves a detection stream over 4 shards that mix every
// failure mode at once: shard crashShard runs the crash loop (every checked
// agent-space write faults, gen 0 only), shard slowShard is alive but
// persistently slow plus intermittent stalls (gen 0 only — its replacement
// models a healthy machine), and every shard sees background-intensity
// faults derived from the root seed. The full gray layer is armed: a
// suspicion scorer with a fixed service-time baseline, and hedging with a
// delay a few baselines out. Serving is strictly sequential so hedge races
// and live drain decisions are pure functions of the request list.
func graySoakRun(t *testing.T, seed int64, crashShard, slowShard int) ([]apps.DetectionResult, *core.Executor) {
	t.Helper()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	root := chaos.Scaled(seed, 0.03)
	crash := root
	crash.Mem.FaultProb = 1
	planOf := func(id, gen int) chaos.Plan {
		switch {
		case id == crashShard && gen == 0:
			return crash.ForShard(id)
		case id == slowShard && gen == 0:
			return root.ForShard(id).WithDegrade(chaos.DegradePlan{
				Factor:    8,
				StallProb: 0.2,
				Stall:     vclock.Duration(2 * time.Millisecond),
			})
		}
		return root.ForShard(id)
	}
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
	ex.SetGray(core.GrayPolicy{Ratio: 3, Baseline: graySoakBaseline(t)})
	ex.SetHedge(core.HedgePolicy{Delay: 4 * graySoakBaseline(t)})
	return srv.ServeSeq(apps.GenDetectionRequests(19, 48)), ex
}

var soakBaseline vclock.Duration

// graySoakBaseline calibrates the scorer's service-time reference once per
// test binary, the same way the gray experiment does: a fault-free run with
// an inert scorer (ratio beyond any healthy deviation) harvests per-shard
// EWMAs, and the largest one is the baseline. No oracle knowledge of which
// shard the soak will slow down.
func graySoakBaseline(t *testing.T) vclock.Duration {
	t.Helper()
	if soakBaseline > 0 {
		return soakBaseline
	}
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	ex, err := core.NewExecutor(4, core.ProtectedShards(reg, cat, core.Default()))
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	srv, err := apps.ProvisionDetection(ex)
	if err != nil {
		t.Fatal(err)
	}
	ex.SetGray(core.GrayPolicy{Ratio: 1e9, Baseline: 1})
	srv.ServeSeq(apps.GenDetectionRequests(19, 48))
	for _, g := range ex.GrayScores() {
		if g.EWMA > soakBaseline {
			soakBaseline = g.EWMA
		}
	}
	if soakBaseline <= 0 {
		t.Fatal("gray soak calibration produced no baseline")
	}
	return soakBaseline
}

// TestGraySoak is the gray-failure soak: a crash-looping shard and a
// slow-but-alive shard in the same pool, background faults everywhere,
// suspicion scoring and hedging both armed. For every seed (a) outputs must
// match the fault-free baseline — hedge races and latency drains change
// when and where work runs, never what it computes; (b) both the crash
// shard and the slow shard must actually drain, the latter through the
// latency scorer (GrayDrains ≥ 1) since its calls all complete; (c)
// replaying the same seed must reproduce the run byte-for-byte: per-shard
// injection logs across every incarnation, failover event logs, suspicion
// scores, hedge counters, and the full latency distribution. Run under
// -race in CI (make graysoak / make check).
func TestGraySoak(t *testing.T) {
	const crashShard, slowShard = 1, 2

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
			results, ex := graySoakRun(t, seed, crashShard, slowShard)
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("request %d: %v", i, r.Err)
				}
				if r.Objects != baseline[i].Objects {
					t.Fatalf("request %d objects = %d, want baseline %d", i, r.Objects, baseline[i].Objects)
				}
			}
			m := ex.Metrics().Snapshot()
			if m.GrayDrains == 0 {
				t.Fatal("slow shard never drained by the latency scorer; the soak exercised nothing gray")
			}
			if m.ShardDrains < 2 {
				t.Fatalf("ShardDrains = %d, want both the crash shard and the slow shard gone", m.ShardDrains)
			}

			// Replay: the whole run must reproduce byte-for-byte.
			replay, rex := graySoakRun(t, seed, crashShard, slowShard)
			if !reflect.DeepEqual(replay, results) {
				t.Fatal("replay outputs diverged")
			}
			for id := 0; id < 4; id++ {
				if a, b := incarnationLogs(ex, id), incarnationLogs(rex, id); !reflect.DeepEqual(a, b) {
					t.Fatalf("shard %d injection logs diverged across replays:\n%v\n%v", id, a, b)
				}
				if a, b := ex.FailoverEventsFor(id), rex.FailoverEventsFor(id); !reflect.DeepEqual(a, b) {
					t.Fatalf("shard %d failover events diverged across replays:\n%v\n%v", id, a, b)
				}
			}
			if a, b := ex.GrayScores(), rex.GrayScores(); !reflect.DeepEqual(a, b) {
				t.Fatalf("suspicion scores diverged across replays:\n%v\n%v", a, b)
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
