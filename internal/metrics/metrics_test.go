package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCountersAccumulate(t *testing.T) {
	c := New()
	c.AddIPC(100)
	c.AddIPC(-5) // negative byte counts are ignored
	c.AddLazyCopy(50)
	c.AddEagerCopy(25)
	c.AddPermFlip(3)
	c.AddRestart()
	c.AddDenial()
	c.AddAPICall()
	c.AddCheckpoint()
	s := c.Snapshot()
	if s.IPCCalls != 2 || s.BytesMoved != 175 || s.LazyCopies != 1 || s.EagerCopies != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.PermFlips != 1 || s.PagesFlip != 3 || s.Restarts != 1 || s.Denials != 1 ||
		s.APICalls != 1 || s.Checkpoints != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestLazyFraction(t *testing.T) {
	c := New()
	if c.Snapshot().LazyFraction() != 0 {
		t.Fatal("empty counters fraction should be 0")
	}
	for i := 0; i < 19; i++ {
		c.AddLazyCopy(1)
	}
	c.AddEagerCopy(1)
	if f := c.Snapshot().LazyFraction(); f != 0.95 {
		t.Fatalf("fraction = %v, want 0.95", f)
	}
}

func TestOverhead(t *testing.T) {
	if got := Overhead(100*time.Millisecond, 103*time.Millisecond); got < 2.9 || got > 3.1 {
		t.Fatalf("overhead = %v, want ~3", got)
	}
	if Overhead(0, time.Second) != 0 {
		t.Fatal("zero base should report 0")
	}
	if Overhead(time.Second, time.Second) != 0 {
		t.Fatal("equal times should report 0")
	}
}

func TestOverheadMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		base := time.Duration(a%1000+1) * time.Millisecond
		p1 := base + time.Duration(b%100)*time.Millisecond
		p2 := p1 + time.Millisecond
		return Overhead(base, p2) > Overhead(base, p1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCounters(t *testing.T) {
	c := New()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 500; j++ {
				c.AddIPC(1)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := c.Snapshot().IPCCalls; got != 4000 {
		t.Fatalf("concurrent IPC count = %d", got)
	}
}

func TestWarmColdCounters(t *testing.T) {
	c := New()
	c.AddWarmHit()
	c.AddWarmHit()
	c.AddColdMiss()
	c.AddPartitionSplit()
	s := c.Snapshot()
	if s.WarmHits != 2 || s.ColdMisses != 1 || s.PartitionSplits != 1 {
		t.Fatalf("warm/cold counters = %d/%d/%d, want 2/1/1",
			s.WarmHits, s.ColdMisses, s.PartitionSplits)
	}
}

func TestLogCountsAndCopies(t *testing.T) {
	var l Log
	if l.Len() != 0 || l.Count("drain") != 0 || len(l.Events()) != 0 {
		t.Fatal("zero log not empty")
	}
	l.Append(Event{Kind: "drain", Detail: "a"})
	l.Append(Event{Kind: "migrate", Detail: "b"})
	l.Append(Event{Kind: "drain", Detail: "c"})
	if l.Len() != 3 || l.Count("drain") != 2 || l.Count("migrate") != 1 || l.Count("grow") != 0 {
		t.Fatalf("len/counts = %d/%d/%d/%d, want 3/2/1/0",
			l.Len(), l.Count("drain"), l.Count("migrate"), l.Count("grow"))
	}
	evs := l.Events()
	evs[0].Kind = "mutated"
	if got := l.Events()[0].Kind; got != "drain" {
		t.Fatalf("Events aliases the log: first kind now %q", got)
	}
	l.Append(Event{Kind: "grow"})
	if len(evs) != 3 {
		t.Fatal("a returned copy grew with the log")
	}
}

func TestLogConcurrentAppends(t *testing.T) {
	var l Log
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.Append(Event{Shard: i, Kind: []string{"hedge", "hedge-win"}[j%2]})
				_ = l.Count("hedge")
				_ = l.Events()
			}
		}(i)
	}
	wg.Wait()
	if l.Len() != 1600 || l.Count("hedge") != 800 || l.Count("hedge-win") != 800 {
		t.Fatalf("len/hedge/win = %d/%d/%d, want 1600/800/800", l.Len(), l.Count("hedge"), l.Count("hedge-win"))
	}
}

func TestEventLines(t *testing.T) {
	shard := Event{At: 1500 * time.Nanosecond, Shard: 2, Gen: 1, Kind: "drain", Detail: "3 failures"}
	if got, want := shard.String(), "@1.5µs shard 2/gen 1 drain 3 failures"; got != want {
		t.Fatalf("shard line = %q, want %q", got, want)
	}
	tick := Event{At: time.Millisecond, Tick: 4, Kind: "grow", Detail: "pool 2->3"}
	if got, want := tick.String(), "tick 4 @1ms grow pool 2->3"; got != want {
		t.Fatalf("tick line = %q, want %q", got, want)
	}
	var l Log
	l.Append(tick)
	l.Append(shard)
	want := "tick 4 @1ms grow pool 2->3\n@1.5µs shard 2/gen 1 drain 3 failures\n"
	if got := l.Render(Event.String); got != want {
		t.Fatalf("Render = %q, want %q", got, want)
	}
}

func TestSnapshotReadsEventCounts(t *testing.T) {
	c := New()
	c.Log().Append(Event{Kind: "drain"})
	c.Log().Append(Event{Kind: "gray-drain"})
	c.Log().Append(Event{Kind: "drain"})
	c.Log().Append(Event{Kind: "reject"})
	c.AddTenantShed(3)
	c.AddTenantServed(3)
	s := c.Snapshot()
	if s.ShardDrains != 2 || s.GrayDrains != 1 || s.Rejected != 1 || s.Migrations != 0 {
		t.Fatalf("event-derived fields = %+v", s)
	}
	if got := s.Tenants[3]; got != (TenantCounts{Served: 1, Shed: 1}) {
		t.Fatalf("tenant 3 = %+v", got)
	}
	s.Tenants[3] = TenantCounts{}
	if c.Snapshot().Tenants[3].Served != 1 {
		t.Fatal("Snapshot aliases the tenant map")
	}
}
