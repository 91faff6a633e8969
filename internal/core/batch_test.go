package core_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/vclock"
)

const us = vclock.Duration(time.Microsecond)

// latencySamples reads every sample of l in ascending order through the
// nearest-rank percentile: rank k of n sits at p = 100(k-½)/n.
func latencySamples(l *vclock.Latencies) []vclock.Duration {
	n := l.Len()
	out := make([]vclock.Duration, n)
	for k := 1; k <= n; k++ {
		out[k-1] = l.Percentile(100 * (float64(k) - 0.5) / float64(n))
	}
	return out
}

// batchEntries builds the shared workload: two sessions (on shards 0 and
// 1), stamped arrivals offset from base and closed-loop ones interleaved
// across them, and one application error that must surface unchanged.
func batchEntries(base vclock.Duration, s0, s1 *core.Session) []core.BatchEntry {
	appErr := errors.New("application error")
	plan := []struct {
		s   *core.Session
		arr vclock.Duration
		err error
	}{
		{s0, 0, nil}, {s0, 50 * us, nil}, {s1, 20 * us, nil}, {s0, 120 * us, appErr},
		{s0, -1, nil}, {s1, -1, nil}, {s0, 310 * us, nil}, {s1, 400 * us, nil},
		{s0, 320 * us, nil}, {s0, -1, nil},
	}
	entries := make([]core.BatchEntry, len(plan))
	for i, p := range plan {
		if p.arr >= 0 {
			p.arr += base
		}
		entries[i] = core.BatchEntry{Session: p.s, Arrival: p.arr, Job: advanceJob(100*us, p.err)}
	}
	return entries
}

// TestDoBatchMatchesDoAt pins DoBatch to the per-invocation path: the same
// entries served as one batch and as one DoAt each, on two fresh executors
// with a scheduled kill landing on shard 0 mid-batch, produce the same
// errors, latency and queue-wait samples, per-shard event logs, and shard
// clocks. The batch executor also carries a hedge policy that must stay
// unused: batch entries never hedge.
func TestDoBatchMatchesDoAt(t *testing.T) {
	run := func(batch bool) (*core.Executor, []error) {
		ex, err := core.NewExecutor(2, core.DirectShards(all.Registry()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Close)
		boot := ex.Shard(0).Clock().Now()
		ex.ScheduleKill(0, boot+250*us)
		if batch {
			ex.SetHedge(core.HedgePolicy{Delay: 1})
		}
		entries := batchEntries(boot, ex.Session(), ex.Session())
		if batch {
			return ex, ex.DoBatch(entries)
		}
		errs := make([]error, len(entries))
		for i, en := range entries {
			errs[i] = en.Session.DoAt(en.Arrival, en.Job)
		}
		return ex, errs
	}
	one, oneErrs := run(false)
	bat, batErrs := run(true)

	if !reflect.DeepEqual(oneErrs, batErrs) {
		t.Fatalf("errors diverged:\nDoAt    %v\nDoBatch %v", oneErrs, batErrs)
	}
	if !reflect.DeepEqual(latencySamples(one.Latencies()), latencySamples(bat.Latencies())) {
		t.Fatalf("latencies diverged:\n%v\n%v", latencySamples(one.Latencies()), latencySamples(bat.Latencies()))
	}
	if !reflect.DeepEqual(latencySamples(one.QueueWaits()), latencySamples(bat.QueueWaits())) {
		t.Fatalf("queue waits diverged:\n%v\n%v", latencySamples(one.QueueWaits()), latencySamples(bat.QueueWaits()))
	}
	for id := 0; id < 2; id++ {
		if a, b := one.FailoverEventsFor(id), bat.FailoverEventsFor(id); !reflect.DeepEqual(a, b) {
			t.Fatalf("shard %d events diverged:\n%v\n%v", id, a, b)
		}
		if a, b := one.Shard(id).Clock().Now(), bat.Shard(id).Clock().Now(); a != b {
			t.Fatalf("shard %d clock diverged: %v vs %v", id, a, b)
		}
	}
	if bat.Shard(0).Gen != 1 {
		t.Fatalf("shard 0 gen = %d, want 1: the kill must land mid-batch", bat.Shard(0).Gen)
	}
	if m := bat.Metrics().Snapshot(); m.Hedges != 0 {
		t.Fatalf("Hedges = %d, want 0: batch entries never hedge", m.Hedges)
	}
}

// TestDoBatchFailedFailover checks the batch's failure contract: when the
// replacement for a killed shard cannot be built, the entry that found the
// shard dead and every entry after it get the failover error, whichever
// shard they are pinned to, while the entries served before the kill keep
// their own results.
func TestDoBatchFailedFailover(t *testing.T) {
	direct := core.DirectShards(all.Registry())
	built := map[int]int{}
	errBoot := errors.New("no spare machine")
	ex, err := core.NewExecutor(2, func(id int) (*core.Shard, error) {
		if built[id]++; built[id] > 1 {
			return nil, errBoot
		}
		return direct(id)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	boot := ex.Shard(0).Clock().Now()
	ex.ScheduleKill(0, boot+250*us)
	errs := ex.DoBatch(batchEntries(boot, ex.Session(), ex.Session()))

	// Shard 0 runs entries 0, 1 and 3 for 300µs past boot; entry 4 finds
	// it killed and its failover fails.
	for i, err := range errs {
		switch {
		case i >= 4:
			if !errors.Is(err, errBoot) {
				t.Fatalf("entry %d error = %v, want the failover error", i, err)
			}
		case i == 3:
			if err == nil || errors.Is(err, errBoot) {
				t.Fatalf("entry 3 error = %v, want its application error", err)
			}
		default:
			if err != nil {
				t.Fatalf("entry %d error = %v, want nil", i, err)
			}
		}
	}
}
