package report

import (
	"reflect"
	"testing"
)

// TestPartitionFrontier pins the tentpole's headline ordering on a small
// configuration: key-aware placement lands returning users warm (a
// materially higher warm-hit ratio than round-robin) and keeps the tail
// below round-robin's cold-inflated queueing; the hot-range melt blows the
// tail up; the mid-window rebalance drill sheds it — without changing a
// single served byte.
func TestPartitionFrontier(t *testing.T) {
	rows, err := MeasurePartition(4, 4, 2000, 1500, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	rr, aware, melt, rebal := rows[0], rows[2], rows[3], rows[4]

	for _, r := range rows {
		if r.Served != r.Visits {
			t.Fatalf("%s: served %d/%d — nothing may fail on a direct pool", r.Scenario, r.Served, r.Visits)
		}
		if r.P50 > r.P95 || r.P95 > r.P99 {
			t.Fatalf("%s: percentiles not monotone: %v %v %v", r.Scenario, r.P50, r.P95, r.P99)
		}
		if r.WarmHits+r.ColdMisses == 0 {
			t.Fatalf("%s: placement memory saw no landings", r.Scenario)
		}
	}

	// The frontier: affinity wins both the cache and the tail.
	if aware.WarmRatio < 2*rr.WarmRatio {
		t.Fatalf("partition-aware warm ratio %.2f not materially above round-robin %.2f",
			aware.WarmRatio, rr.WarmRatio)
	}
	if aware.P99 >= rr.P99 {
		t.Fatalf("partition-aware p99 %v did not beat round-robin %v", aware.P99, rr.P99)
	}

	// The melt arc: the naive range assignment melts, the drill recovers,
	// and the drill is control-plane only.
	if melt.P99 <= aware.P99 {
		t.Fatalf("hot-range melt p99 %v should dwarf partition-aware %v", melt.P99, aware.P99)
	}
	if rebal.P99 >= melt.P99 {
		t.Fatalf("rebalance p99 %v did not improve on melt %v", rebal.P99, melt.P99)
	}
	if rebal.Splits != 1 {
		t.Fatalf("rebalance row recorded %d splits, want 1", rebal.Splits)
	}
	if rebal.Moved == 0 {
		t.Fatal("the drill migrated no live sessions")
	}
	if rebal.SplitKey == 0 {
		t.Fatal("the drill never computed a load-median split key")
	}
	if !melt.ResultsMatchBaseline || !rebal.ResultsMatchBaseline {
		t.Fatal("drill changed served results")
	}
	if melt.Splits != 0 || melt.Moved != 0 {
		t.Fatalf("no-drill melt row shows drill activity: %+v", melt)
	}
}

// TestPartitionDeterminism replays the whole experiment and requires
// byte-equal rows: placement, drill, and accounting are pure functions of
// the configuration.
func TestPartitionDeterminism(t *testing.T) {
	a, err := MeasurePartition(4, 4, 1000, 600, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasurePartition(4, 4, 1000, 600, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("experiment diverged across replays:\n%+v\n%+v", a, b)
	}
}

// TestPartitionRejectsBadConfig covers the argument guards.
func TestPartitionRejectsBadConfig(t *testing.T) {
	if _, err := MeasurePartition(3, 3, 100, 100, 1.2); err == nil {
		t.Fatal("odd shard count must be rejected")
	}
	if _, err := MeasurePartition(4, 4, 0, 100, 1.2); err == nil {
		t.Fatal("zero users must be rejected")
	}
	if _, err := MeasurePartition(4, 4, 100, 0, 1.2); err == nil {
		t.Fatal("zero visits must be rejected")
	}
	if _, err := MeasurePartition(4, 0, 100, 100, 1.2); err == nil {
		t.Fatal("zero range partitions must be rejected")
	}
}
