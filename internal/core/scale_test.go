package core_test

import (
	"reflect"
	"sync"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// TestGrowJoinsTimelineAtBoot pins the grown shard's clock accounting: a
// shard ordered at virtual time `at` joins the timeline at at + boot, no
// matter how at compares to the boot cost. (The seed bug: observing `at`
// then advancing by boot double-charged the boot whenever at < boot.)
func TestGrowJoinsTimelineAtBoot(t *testing.T) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()

	// Measure the factory's boot cost on a throwaway pool.
	probe, err := core.NewExecutor(1, core.ProtectedShards(reg, cat, core.Default()))
	if err != nil {
		t.Fatal(err)
	}
	boot := probe.Shard(0).K.Clock.Now()
	probe.Close()
	if boot <= 0 {
		t.Fatal("protected shards should have a nonzero boot cost")
	}

	ex, err := core.NewExecutor(1, core.ProtectedShards(reg, cat, core.Default()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	for _, at := range []vclock.Duration{boot / 10, boot * 3} { // before and after one boot
		sh, err := ex.Grow(at)
		if err != nil {
			t.Fatal(err)
		}
		if got := sh.K.Clock.Now(); got != at+boot {
			t.Fatalf("shard grown at %v has clock %v, want %v", at, got, at+boot)
		}
		if sh.JoinedAt != at {
			t.Fatalf("JoinedAt = %v, want %v", sh.JoinedAt, at)
		}
	}
	if got := ex.Shards(); got != 3 {
		t.Fatalf("pool is %d shards, want 3", got)
	}
}

// TestShrinkRetiresHighestSlotAndMigrates checks scale-in: the victim is
// the highest slot, its sessions land on surviving shards, and the pool
// keeps serving them.
func TestShrinkRetiresHighestSlotAndMigrates(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(3, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	var sessions []*core.Session
	for i := 0; i < 6; i++ { // round-robin: two per shard
		sessions = append(sessions, ex.Session())
	}
	victim, err := ex.Shrink(nil)
	if err != nil {
		t.Fatal(err)
	}
	if victim.ID != 2 {
		t.Fatalf("shrink retired shard %d, want highest slot 2", victim.ID)
	}
	if got := ex.Shards(); got != 2 {
		t.Fatalf("pool is %d shards, want 2", got)
	}
	if got := ex.PinnedSessions(2); len(got) != 0 {
		t.Fatalf("retired shard still pins sessions %v", got)
	}
	for _, s := range sessions {
		if got := s.Shard().ID; got > 1 {
			t.Fatalf("session %d still pinned to retired shard %d", s.ID, got)
		}
		if err := s.Do(func(sh *core.Shard) error { sh.K.Clock.Advance(1); return nil }); err != nil {
			t.Fatalf("session %d dead after shrink: %v", s.ID, err)
		}
	}
}

// TestScaleSequenceDeterministic replays a grow/migrate/shrink sequence
// and demands byte-equal event logs and shard loads — the executor-level
// half of the control plane's replayability story.
func TestScaleSequenceDeterministic(t *testing.T) {
	run := func() ([]metrics.Event, []core.ShardLoad) {
		reg := all.Registry()
		ex, err := core.NewExecutor(2, core.DirectShards(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		for i := 0; i < 4; i++ {
			ex.Session()
		}
		if _, err := ex.Grow(1000); err != nil {
			t.Fatal(err)
		}
		if err := ex.MigrateSession(0, 2, 50); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Shrink(nil); err != nil {
			t.Fatal(err)
		}
		return ex.Metrics().Log().Events(), ex.ShardLoads()
	}
	e1, l1 := run()
	e2, l2 := run()
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("event logs diverged:\n%v\nvs\n%v", e1, e2)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatalf("shard loads diverged:\n%v\nvs\n%v", l1, l2)
	}
}

// eventFields maps every event-derived Snapshot field to the executor
// event kind it counts.
var eventFields = map[string]func(metrics.Snapshot) uint64{
	"drain":          func(m metrics.Snapshot) uint64 { return m.ShardDrains },
	"migrate":        func(m metrics.Snapshot) uint64 { return m.Migrations },
	"migrate-failed": func(m metrics.Snapshot) uint64 { return m.FailedMigrations },
	"grow":           func(m metrics.Snapshot) uint64 { return m.ScaleUps },
	"shrink":         func(m metrics.Snapshot) uint64 { return m.ScaleDowns },
	"rebalance":      func(m metrics.Snapshot) uint64 { return m.Rebalances },
	"rebind":         func(m metrics.Snapshot) uint64 { return m.Rebinds },
	"hedge":          func(m metrics.Snapshot) uint64 { return m.Hedges },
	"hedge-win":      func(m metrics.Snapshot) uint64 { return m.HedgeWins },
	"hedge-cancel":   func(m metrics.Snapshot) uint64 { return m.HedgeCancels },
	"reject":         func(m metrics.Snapshot) uint64 { return m.Rejected },
	"shed":           func(m metrics.Snapshot) uint64 { return m.DeadlineShed },
	"quarantine":     func(m metrics.Snapshot) uint64 { return m.Quarantined },
	"gray-drain":     func(m metrics.Snapshot) uint64 { return m.GrayDrains },
}

// TestEventsAndMetricsAgree polls the metrics snapshot between two reads
// of the event log while scale, migration, kill and overload traffic is in
// flight, and demands every event-derived field lie between its kind's
// count in the earlier and the later log — and equal it once the pool is
// quiet. The fields are read from the log, so they can never count an
// event the log lacks.
func TestEventsAndMetricsAgree(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(2, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	ex.SetAdmission(core.AdmissionPolicy{QueueLimit: 1})
	var sessions []*core.Session
	for i := 0; i < 4; i++ {
		sessions = append(sessions, ex.Session())
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := ex.Grow(vclock.Duration(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			_ = ex.MigrateSession(sessions[i%4].ID, i%2, 0)
		}
	}()
	go func() {
		defer wg.Done()
		// Arrivals stamped at 0 behind a 100ns job overrun the queue
		// bound; a kill mid-stream drains the session's shard.
		s := ex.Session()
		for i := 0; i < 20; i++ {
			if i == 10 {
				ex.KillShard(s.Shard().ID, "test kill")
			}
			_ = s.DoAt(0, func(sh *core.Shard) error { sh.K.Clock.Advance(100); return nil })
		}
	}()

	check := func(quiet bool) {
		before := ex.Metrics().Log().Events()
		m := ex.Metrics().Snapshot()
		after := ex.Metrics().Log().Events()
		for kind, field := range eventFields {
			lo, hi := countKind(before, kind), countKind(after, kind)
			if got := field(m); got < lo || got > hi || (quiet && got != hi) {
				t.Fatalf("snapshot counts %d %q events, log shows %d..%d", got, kind, lo, hi)
			}
		}
	}
	for i := 0; i < 200; i++ {
		check(false)
	}
	wg.Wait()
	check(true)
	m := ex.Metrics().Snapshot()
	if m.ScaleUps != 10 || m.Migrations == 0 || m.ShardDrains != 1 || m.Rejected == 0 {
		t.Fatalf("workload missed its events: %+v", m)
	}
}

// countKind counts the events of one kind.
func countKind(evs []metrics.Event, kind string) uint64 {
	var n uint64
	for _, ev := range evs {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}
