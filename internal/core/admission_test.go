package core_test

import (
	"errors"
	"fmt"
	"testing"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/ipc"
	"freepart.dev/freepart/internal/vclock"
)

// newDirectExecutor builds an unprotected n-shard executor — admission
// semantics live entirely in the executor layer, so the cheap shard
// flavor exercises them fully.
func newDirectExecutor(t *testing.T, n int) *core.Executor {
	t.Helper()
	ex, err := core.NewExecutor(n, core.DirectShards(all.Registry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	// Admission arithmetic is relative to arrival stamps, so measure from a
	// zero clock rather than the shard boot cost.
	for i := 0; i < n; i++ {
		ex.Shard(i).K.Clock.Reset()
	}
	return ex
}

// advance returns a job that models a fixed service time.
func advance(d vclock.Duration) func(sh *core.Shard) error {
	return func(sh *core.Shard) error {
		sh.K.Clock.Advance(d)
		return nil
	}
}

// TestAdmissionQueueBound pins the virtual 503: with QueueLimit 2, the
// request that arrives while two admitted ones are still on the virtual
// timeline is rejected with ErrOverloaded — its job never runs — and a
// later arrival, after the queue has drained on the timeline, is admitted
// again.
func TestAdmissionQueueBound(t *testing.T) {
	ex := newDirectExecutor(t, 1)
	ex.SetAdmission(core.AdmissionPolicy{QueueLimit: 2})
	s := ex.Session()

	// Two requests arriving at t=0, each 100ns of service: they occupy the
	// timeline until 100 and 200.
	for i := 0; i < 2; i++ {
		if err := s.DoAt(0, advance(100)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	ran := false
	err := s.DoAt(0, func(sh *core.Shard) error { ran = true; return nil })
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("third arrival at t=0: got %v, want ErrOverloaded", err)
	}
	if ran {
		t.Fatal("rejected request's job ran")
	}
	if got := core.ErrClass(err); got != "overloaded" {
		t.Fatalf("ErrClass = %q, want overloaded", got)
	}
	// The bound is a function of the virtual timeline, not a permanent
	// state: an arrival past both completions sees an empty queue.
	if err := s.DoAt(250, advance(100)); err != nil {
		t.Fatalf("arrival after drain: %v", err)
	}

	events, m := ex.Metrics().Log().Events(), ex.Metrics().Snapshot()
	if m.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", m.Rejected)
	}
	found := false
	for _, ev := range events {
		if ev.Kind == "reject" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no reject event in log: %v", events)
	}
}

// TestAdmissionDeadline pins deadline shedding: a request whose queue wait
// on the virtual clock exceeds its deadline is dropped at dequeue with
// ErrDeadlineExceeded, without running or advancing the shard clock.
func TestAdmissionDeadline(t *testing.T) {
	ex := newDirectExecutor(t, 1)
	ex.SetAdmission(core.AdmissionPolicy{Deadline: 50})
	s := ex.Session()

	if err := s.DoAt(0, advance(100)); err != nil {
		t.Fatal(err)
	}
	// Dequeued at clock 100, arrived at 0, deadline 50: 50ns late.
	ran := false
	err := s.DoAt(0, func(sh *core.Shard) error { ran = true; return nil })
	if !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("stale dequeue: got %v, want ErrDeadlineExceeded", err)
	}
	if ran {
		t.Fatal("shed request's job ran")
	}
	if got := ex.Shard(0).K.Clock.Now(); got != 100 {
		t.Fatalf("shed request moved the shard clock: %v, want 100", got)
	}
	if got := core.ErrClass(err); got != "deadline" {
		t.Fatalf("ErrClass = %q, want deadline", got)
	}
	// A fresh arrival the idle shard can serve on time is unaffected.
	if err := s.DoAt(200, advance(100)); err != nil {
		t.Fatal(err)
	}

	events, m := ex.Metrics().Log().Events(), ex.Metrics().Snapshot()
	if m.DeadlineShed != 1 {
		t.Fatalf("DeadlineShed = %d, want 1", m.DeadlineShed)
	}
	found := false
	for _, ev := range events {
		if ev.Kind == "shed" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shed event in log: %v", events)
	}
}

// TestAdmissionZeroPolicyIsInert pins the zero-cost guard at the executor
// layer: with the zero AdmissionPolicy installed explicitly, nothing is
// ever rejected, no overload events appear, and per-tenant counters show
// pure service.
func TestAdmissionZeroPolicyIsInert(t *testing.T) {
	ex := newDirectExecutor(t, 1)
	ex.SetAdmission(core.AdmissionPolicy{})
	s := ex.Session()
	// The same pattern that trips both mechanisms under an active policy.
	for i := 0; i < 8; i++ {
		if err := s.DoAt(0, advance(100)); err != nil {
			t.Fatalf("request %d rejected under zero policy: %v", i, err)
		}
	}
	events, m := ex.Metrics().Log().Events(), ex.Metrics().Snapshot()
	if m.Rejected != 0 || m.DeadlineShed != 0 {
		t.Fatalf("zero policy shed work: rejected=%d deadline=%d", m.Rejected, m.DeadlineShed)
	}
	for _, ev := range events {
		if ev.Kind == "reject" || ev.Kind == "shed" {
			t.Fatalf("zero policy logged overload event: %v", ev)
		}
	}
}

// TestTenantLoads pins the per-tenant signal snapshot: served, rejected,
// and shed work accumulate under the session's tenant identity, ascending
// by tenant id.
func TestTenantLoads(t *testing.T) {
	ex := newDirectExecutor(t, 1)
	ex.SetAdmission(core.AdmissionPolicy{QueueLimit: 1})
	s1 := ex.SessionFor(1, 2)
	s2 := ex.SessionFor(2, 1)
	if got := ex.TenantOf(s1.ID); got != 1 {
		t.Fatalf("TenantOf(%d) = %d, want 1", s1.ID, got)
	}

	if err := s1.DoAt(0, advance(100)); err != nil {
		t.Fatal(err)
	}
	// Tenant 2 arrives while tenant 1's request is still in the system.
	if err := s2.DoAt(0, advance(100)); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	loads := ex.TenantLoads()
	if len(loads) != 2 || loads[0].Tenant != 1 || loads[1].Tenant != 2 {
		t.Fatalf("TenantLoads = %+v, want tenants 1,2", loads)
	}
	if loads[0].Served != 1 || loads[0].Weight != 2 {
		t.Fatalf("tenant 1 load = %+v, want served 1 weight 2", loads[0])
	}
	if loads[1].Rejected != 1 || loads[1].Served != 0 {
		t.Fatalf("tenant 2 load = %+v, want rejected 1 served 0", loads[1])
	}
	// The metrics tenant cells fold both shed classes into one counter.
	m := ex.Metrics().Snapshot()
	if m.Tenants[1].Served != 1 || m.Tenants[2].Shed != 1 {
		t.Fatalf("tenant counters = %+v", m.Tenants)
	}
}

// TestErrClassTaxonomy pins the class names the per-class summaries print —
// operators alert on these strings.
func TestErrClassTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{core.ErrOverloaded, "overloaded"},
		{fmt.Errorf("shard 3: %w", core.ErrOverloaded), "overloaded"},
		{core.ErrDeadlineExceeded, "deadline"},
		{fmt.Errorf("late: %w", core.ErrDeadlineExceeded), "deadline"},
		{ipc.ErrTimeout, "timeout"},
		{ipc.ErrAgentCrashed, "agent-crash"},
		{ipc.ErrCorrupt, "corrupt"},
		{errors.New("anything else"), "app-error"},
	}
	for _, c := range cases {
		if got := core.ErrClass(c.err); got != c.want {
			t.Errorf("ErrClass(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
