package sched_test

import (
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/partition"
	"freepart.dev/freepart/internal/sched"
)

func TestPartitionAwareZeroValueDeclines(t *testing.T) {
	var pa sched.PartitionAware
	pool := []core.PlacementInfo{{ID: 0}, {ID: 1}}
	if got := pa.Place(0, pool); got != -1 {
		t.Fatalf("zero-value Place = %d, want -1 (decline)", got)
	}
	if got := pa.PlaceKeyed(0, 42, pool); got != -1 {
		t.Fatalf("zero-value PlaceKeyed = %d, want -1 (decline)", got)
	}
	if got := pa.MigrateTarget(0, 0, pool); got != -1 {
		t.Fatalf("zero-value MigrateTarget = %d, want -1 (decline)", got)
	}
}

func TestPartitionAwareWarmShardWins(t *testing.T) {
	mem := partition.NewMemory()
	mem.Touch(42, 3, 0, 0) // key 42 last ran on slot 3 gen 0
	pa := sched.PartitionAware{Memory: mem, Topo: sched.Topology{ShardsPerSocket: 2}}
	pool := []core.PlacementInfo{
		{ID: 0, Sessions: 0}, {ID: 1, Sessions: 0},
		{ID: 2, Sessions: 0}, {ID: 3, Sessions: 2},
	}
	if got := pa.PlaceKeyed(9, 42, pool); got != 3 {
		t.Fatalf("warm shard lost: placed on %d, want 3", got)
	}
	// A replaced incarnation is cold: same slot, new gen → fall through.
	pool[3].Gen = 1
	if got := pa.PlaceKeyed(9, 42, pool); got == 3 {
		t.Fatal("placed on a replaced shard as if its cache survived")
	}
	// An overloaded warm shard loses to balance.
	pool[3].Gen = 0
	pool[3].Sessions = 10
	if got := pa.PlaceKeyed(9, 42, pool); got == 3 {
		t.Fatal("affinity ignored the spill guard")
	}
}

func TestPartitionAwarePreferredFallback(t *testing.T) {
	meta := partition.New(partition.Range, 4, 1000)
	meta.Prefer(2, 1) // keys [500,750) → slot 1
	pa := sched.PartitionAware{Meta: meta, Memory: partition.NewMemory(), Topo: sched.Topology{ShardsPerSocket: 2}}
	pool := []core.PlacementInfo{
		{ID: 0, Sessions: 1}, {ID: 1, Sessions: 2}, {ID: 2, Sessions: 1}, {ID: 3, Sessions: 1},
	}
	// No history for the key: the partition preference decides.
	if got := pa.PlaceKeyed(0, 600, pool); got != 1 {
		t.Fatalf("preferred slot lost: placed on %d, want 1", got)
	}
	// A key with no preference falls back to the base placer (Locality).
	if got := pa.PlaceKeyed(0, 100, pool); got == 1 {
		t.Fatal("unpreferred key landed on the preferred slot anyway")
	}
}

func TestPartitionAwareWarmBeatsPreferred(t *testing.T) {
	meta := partition.New(partition.Range, 2, 100)
	meta.Prefer(0, 0)
	mem := partition.NewMemory()
	mem.Touch(10, 1, 0, 0) // history says slot 1, metadata says slot 0
	pa := sched.PartitionAware{Meta: meta, Memory: mem}
	pool := []core.PlacementInfo{{ID: 0}, {ID: 1}}
	if got := pa.PlaceKeyed(0, 10, pool); got != 1 {
		t.Fatalf("placement memory should outrank static preference: got %d, want 1", got)
	}
}

func TestPartitionAwareInstallsKeyedHook(t *testing.T) {
	ex, err := core.NewExecutor(4, core.DirectShards(all.Registry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	mem := partition.NewMemory()
	mem.Touch(77, 2, 0, 0)
	sched.New(ex, inertPolicy(4), sched.PartitionAware{Memory: mem})
	s := ex.SessionKeyed(0, 1, 77)
	if got := s.Shard().ID; got != 2 {
		t.Fatalf("keyed open landed on shard %d, want warm shard 2", got)
	}
	if key, keyed := ex.SessionKey(s.ID); !keyed || key != 77 {
		t.Fatalf("SessionKey = (%d,%v), want (77,true)", key, keyed)
	}
}

// keyDecliner is a LeastLoaded placer that declines every key, so keyed
// opens must fall through to its plain Place.
type keyDecliner struct{ sched.LeastLoaded }

func (keyDecliner) PlaceKeyed(int, uint64, []core.PlacementInfo) int { return -1 }

// TestKeyedPlacementFallback pins the keyed → plain → round-robin chain:
// under a controller whose keyed placer declines every key, SessionKeyed
// opens land exactly where LeastLoaded places SessionFor opens; under a
// wholly declining PartitionAware{} and with no controller at all,
// SessionKeyed goes round-robin like SessionFor. Every run finishes one
// early session so least-loaded and round-robin disagree.
func TestKeyedPlacementFallback(t *testing.T) {
	place := func(attach func(*core.Executor), keyed bool) []int {
		ex, err := core.NewExecutor(3, core.DirectShards(all.Registry()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Close)
		if attach != nil {
			attach(ex)
		}
		var got []int
		for i := 0; i < 7; i++ {
			var s *core.Session
			if keyed {
				s = ex.SessionKeyed(0, 1, uint64(100+i))
			} else {
				s = ex.SessionFor(0, 1)
			}
			got = append(got, s.Shard().ID)
			if i == 1 {
				s.Finish()
			}
		}
		return got
	}
	ctl := func(p sched.Placer) func(*core.Executor) {
		return func(ex *core.Executor) { sched.New(ex, inertPolicy(3), p) }
	}
	least := place(ctl(sched.LeastLoaded{}), false)
	if rr := place(nil, false); reflect.DeepEqual(least, rr) {
		t.Fatalf("workload does not separate least-loaded from round-robin: %v", rr)
	}
	if got := place(ctl(keyDecliner{}), true); !reflect.DeepEqual(got, least) {
		t.Fatalf("declined keyed opens placed %v, want LeastLoaded's %v", got, least)
	}
	rr := place(nil, false)
	if got := place(ctl(sched.PartitionAware{}), true); !reflect.DeepEqual(got, rr) {
		t.Fatalf("zero PartitionAware keyed opens placed %v, want round-robin %v", got, rr)
	}
	if got := place(nil, true); !reflect.DeepEqual(got, rr) {
		t.Fatalf("keyed opens with no controller placed %v, want round-robin %v", got, rr)
	}
}
