package sched_test

import (
	"reflect"
	"strings"
	"testing"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/sched"
	"freepart.dev/freepart/internal/vclock"
)

// entry builds a wave entry for a tenant (nil session = legacy tenant 0).
func entry(tenant, weight int, arrival vclock.Duration) core.BatchEntry {
	if tenant == 0 && weight == 0 {
		return core.BatchEntry{Arrival: arrival}
	}
	return core.BatchEntry{Session: &core.Session{Tenant: tenant, Weight: weight}, Arrival: arrival}
}

// TestWFQSingleTenantKeepsArrivalOrder pins the zero-cost property WFQ
// needs to be safe as a default: a queue from one tenant is admitted in
// exactly its original order, with or without prior charging.
func TestWFQSingleTenantKeepsArrivalOrder(t *testing.T) {
	q := &sched.WFQ{Quantum: 10}
	entries := []core.BatchEntry{
		entry(0, 0, 5), entry(0, 0, 10), entry(0, 0, 15), entry(0, 0, 20),
	}
	want := []int{0, 1, 2, 3}
	if got := q.Order(0, entries); !reflect.DeepEqual(got, want) {
		t.Fatalf("single-tenant order = %v, want identity", got)
	}
	// Charging the tenant does not change a single-tenant ordering.
	q.Observe(0, entries, make([]error, len(entries)))
	if got := q.Order(0, entries); !reflect.DeepEqual(got, want) {
		t.Fatalf("single-tenant order after charging = %v, want identity", got)
	}
}

// TestWFQFavorsUnderservedTenant pins the fairness mechanism: after one
// tenant consumed a wave of service, the other tenant's requests sort
// ahead of it at equal arrivals.
func TestWFQFavorsUnderservedTenant(t *testing.T) {
	q := &sched.WFQ{Quantum: 10}
	heavyWave := []core.BatchEntry{
		entry(1, 1, 0), entry(1, 1, 0), entry(1, 1, 0), entry(1, 1, 0),
	}
	q.Observe(0, heavyWave, make([]error, len(heavyWave)))

	mixed := []core.BatchEntry{
		entry(1, 1, 0), entry(1, 1, 0), entry(2, 1, 0),
	}
	got := q.Order(0, mixed)
	if got[0] != 2 {
		t.Fatalf("order = %v, want the underserved tenant's entry (index 2) first", got)
	}
	// State is per shard slot: on a fresh slot there is no history, so the
	// same queue interleaves the tenants round-robin within the wave
	// instead of favoring either — the heavy tenant's first entry leads
	// again.
	if got := q.Order(1, mixed); !reflect.DeepEqual(got, []int{0, 2, 1}) {
		t.Fatalf("fresh slot order = %v, want [0 2 1] (within-wave interleave, no history)", got)
	}
}

// TestWFQWeightsScaleTheCharge pins weighted sharing: at weight 2 a tenant
// is charged half a quantum per served request, so after equal service its
// requests still sort ahead of an equal-arrival weight-1 tenant's.
func TestWFQWeightsScaleTheCharge(t *testing.T) {
	q := &sched.WFQ{Quantum: 10}
	wave := []core.BatchEntry{
		entry(1, 1, 0), entry(1, 1, 0), entry(2, 2, 0), entry(2, 2, 0),
	}
	q.Observe(0, wave, make([]error, len(wave)))
	// Clocks now: tenant 1 at 20, tenant 2 at 10.
	got := q.Order(0, []core.BatchEntry{entry(1, 1, 0), entry(2, 2, 0)})
	if got[0] != 1 {
		t.Fatalf("order = %v, want the weight-2 tenant first", got)
	}
}

// TestWFQChargesServiceNotDemand pins the start-time-fair-queueing choice:
// shed requests consumed no capacity, so they advance no clock — a tenant
// whose whole wave was rejected is not pushed behind the tenant that was
// actually served.
func TestWFQChargesServiceNotDemand(t *testing.T) {
	q := &sched.WFQ{Quantum: 10}
	wave := []core.BatchEntry{entry(1, 1, 0), entry(1, 1, 0), entry(2, 1, 0)}
	errs := []error{core.ErrOverloaded, core.ErrOverloaded, nil}
	q.Observe(0, wave, errs)

	// Tenant 1 was offered twice but served nothing; tenant 2 was served
	// once. Tenant 1 must now sort first.
	got := q.Order(0, []core.BatchEntry{entry(2, 1, 0), entry(1, 1, 0)})
	if got[0] != 1 {
		t.Fatalf("order = %v, want the shed (unserved) tenant first", got)
	}
}

// TestWFQContendedWaveChargesFairInterval pins the contention charge: in a
// wave that shed anything, a served request charges the quantum times the
// wave's total tenant weight (here 2 tenants: 20), so the served tenant's
// clock outruns real time and the shed tenant sorts first later on. A flat
// charge of 10 would tie both at arrival 15 and keep the served tenant
// (index 0) ahead.
func TestWFQContendedWaveChargesFairInterval(t *testing.T) {
	q := &sched.WFQ{Quantum: 10}
	wave := []core.BatchEntry{entry(1, 1, 0), entry(2, 1, 0)}
	q.Observe(0, wave, []error{core.ErrOverloaded, nil})

	got := q.Order(0, []core.BatchEntry{entry(2, 1, 15), entry(1, 1, 15)})
	if !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("order = %v, want [1 0] (served tenant charged its fair interval)", got)
	}
}

// TestWFQLeadCapBoundsHandicap pins the clamp: a tenant's finish clock may
// run at most LeadCap quanta ahead of the slowest active tenant, so a
// service-rich history cannot bank an unbounded penalty.
func TestWFQLeadCapBoundsHandicap(t *testing.T) {
	q := &sched.WFQ{Quantum: 10, LeadCap: 2}
	wave := make([]core.BatchEntry, 0, 11)
	for i := 0; i < 10; i++ {
		wave = append(wave, entry(1, 1, 0))
	}
	wave = append(wave, entry(2, 1, 0))
	q.Observe(0, wave, make([]error, len(wave)))

	// Unclamped, tenant 1's clock would sit at 100 vs tenant 2's 10; the
	// cap pulls it to 30. Provisional keys at arrival 0: t2 runs 20, 30,
	// 40; t1's single entry lands at 40 and the stable sort keeps it ahead
	// of the third t2 entry — with the unbounded handicap it would sort
	// dead last.
	mixed := []core.BatchEntry{entry(1, 1, 0), entry(2, 1, 0), entry(2, 1, 0), entry(2, 1, 0)}
	got := q.Order(0, mixed)
	if !reflect.DeepEqual(got, []int{1, 2, 0, 3}) {
		t.Fatalf("order = %v, want [1 2 0 3] (lead clamped to 2 quanta)", got)
	}
}

// TestTenantSpreadPlace pins the multi-tenant placer: fewest sessions of
// the opening tenant first, total sessions second, slot id last — and the
// source shard excluded from migration targets.
func TestTenantSpreadPlace(t *testing.T) {
	pool := []core.PlacementInfo{
		{ID: 0, Sessions: 3, TenantSessions: 1},
		{ID: 1, Sessions: 1, TenantSessions: 2},
		{ID: 2, Sessions: 2, TenantSessions: 1},
	}
	if got := (sched.TenantSpread{}).Place(9, pool); got != 2 {
		t.Fatalf("placed on %d, want 2 (fewest tenant sessions, then fewest total)", got)
	}
	if got := (sched.TenantSpread{}).MigrateTarget(9, 2, pool); got != 0 {
		t.Fatalf("migrate target = %d, want 0 (source excluded, tenant count wins over total)", got)
	}
	// Single-tenant pools tie on the first criterion and degenerate to
	// least-loaded.
	for i := range pool {
		pool[i].TenantSessions = 0
	}
	if got := (sched.TenantSpread{}).Place(9, pool); got != 1 {
		t.Fatalf("single-tenant placement = %d, want 1 (least loaded)", got)
	}
}

// overloadExecutor builds a direct pool with a reset clock and a tight
// admission bound, so a single same-arrival collision produces a rejection
// the controller will see in its next window.
func overloadExecutor(t *testing.T, shards int) *core.Executor {
	t.Helper()
	ex, err := core.NewExecutor(shards, core.DirectShards(all.Registry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	for i := 0; i < shards; i++ {
		ex.Shard(i).K.Clock.Reset()
	}
	ex.SetAdmission(core.AdmissionPolicy{QueueLimit: 1})
	return ex
}

// TestControllerGrowsOnRejection pins the first-class overload signal:
// rejections in the window grow the pool even with wait signals calm.
func TestControllerGrowsOnRejection(t *testing.T) {
	ex := overloadExecutor(t, 2)
	ctl := sched.New(ex, sched.Policy{MinShards: 2, MaxShards: 3}, nil)
	s := ex.Session()
	if err := s.DoAt(0, func(sh *core.Shard) error { sh.K.Clock.Advance(100); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.DoAt(0, func(sh *core.Shard) error { return nil }); err == nil {
		t.Fatal("second same-arrival request was not rejected")
	}
	ctl.Tick()
	if got := ex.Shards(); got != 3 {
		t.Fatalf("pool = %d shards after rejection tick, want 3", got)
	}
	log := ctl.EventLog()
	if !strings.Contains(log, "grow") || !strings.Contains(log, "rejected 1") {
		t.Fatalf("decision log does not explain the grow:\n%s", log)
	}
}

// TestControllerShedsAtMaxShards pins the inversion past the ceiling: at
// MaxShards the controller records saturation and keeps shedding instead
// of growing.
func TestControllerShedsAtMaxShards(t *testing.T) {
	ex := overloadExecutor(t, 2)
	ctl := sched.New(ex, sched.Policy{MinShards: 2, MaxShards: 2}, nil)
	s := ex.Session()
	if err := s.DoAt(0, func(sh *core.Shard) error { sh.K.Clock.Advance(100); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.DoAt(0, func(sh *core.Shard) error { return nil }); err == nil {
		t.Fatal("second same-arrival request was not rejected")
	}
	ctl.Tick()
	if got := ex.Shards(); got != 2 {
		t.Fatalf("pool grew past MaxShards: %d", got)
	}
	log := ctl.EventLog()
	if !strings.Contains(log, "saturated") || !strings.Contains(log, "pool 2 at max") {
		t.Fatalf("saturation not recorded:\n%s", log)
	}
}

// TestControllerGrowsOnTenantSkew pins the fairness signal: when one
// tenant's window mean wait dominates another's past the ratio, the pool
// grows and the log names the skew.
func TestControllerGrowsOnTenantSkew(t *testing.T) {
	ex, err := core.NewExecutor(2, core.DirectShards(all.Registry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	for i := 0; i < 2; i++ {
		ex.Shard(i).K.Clock.Reset()
	}
	ctl := sched.New(ex, sched.Policy{MinShards: 2, MaxShards: 3}, nil)
	s1 := ex.SessionFor(1, 1)
	s2 := ex.SessionFor(2, 1)

	// Tenant 1 on its shard: waits 0 then 10 (mean 5). Tenant 2 on its own
	// shard: waits 0 then 50 (mean 25). Skew 5.0 >= 2.
	if err := s1.DoAt(0, func(sh *core.Shard) error { sh.K.Clock.Advance(100); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s1.DoAt(90, func(sh *core.Shard) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s2.DoAt(0, func(sh *core.Shard) error { sh.K.Clock.Advance(100); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s2.DoAt(50, func(sh *core.Shard) error { return nil }); err != nil {
		t.Fatal(err)
	}
	ctl.Tick()
	if got := ex.Shards(); got != 3 {
		t.Fatalf("pool = %d shards after skew tick, want 3", got)
	}
	log := ctl.EventLog()
	if !strings.Contains(log, "tenant-skew 5.00") {
		t.Fatalf("decision log does not name the skew:\n%s", log)
	}
}
