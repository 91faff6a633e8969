package main

import (
	"fmt"
	"sort"
	"time"

	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/partition"
	"freepart.dev/freepart/internal/sched"
	"freepart.dev/freepart/internal/vclock"
	"freepart.dev/freepart/internal/workload"
)

// The partition workload: keyed Zipf visits on direct shards, configured as
// report.MeasurePartition configures its experiment but with about 30 times
// the visits at the package's default 12 µs spacing (at the experiment's
// 6 µs the p99.99 tail moves by a quarter from seed to seed). It never calls
// a framework API, so framework, ipc and kernel stay idle; it loads session
// churn, placement, placement memory, checkpoint migration, vclock
// percentiles and workload generation.
const (
	partShards      = 8
	partUsers       = 30000
	partVisits      = 400000
	partSkew        = 1.1
	partWorkingSet  = 32 << 10
	partCompute     = 2 << 10
	partResidents   = 64
	partHashParts   = 64
	partHottestOver = 50000 // resident keys are the hottest of this prefix
)

type partitionWorkload struct{ seed int64 }

// The reference is the benchmark's own visit digest, computed per result.
func (w *partitionWorkload) prepare() error { return nil }

// partRun is one pool serving the whole stream under one placement.
type partRun struct {
	name  string
	ex    *core.Executor
	srv   *apps.PartitionServer
	mem   *partition.PlacementMemory
	meta  *partition.Meta
	drill bool
}

type partitionPass struct {
	stream []apps.PartitionVisit
	runs   []*partRun
	traced bool
	setup  map[string]float64
}

var partTopo = sched.Topology{ShardsPerSocket: partShards / 2}

func newPartRun(name string, placer *sched.PartitionAware, meta *partition.Meta, residents []uint64) (*partRun, error) {
	ex, err := core.NewExecutor(partShards, core.DirectShards(all.Registry()))
	if err != nil {
		return nil, err
	}
	mem := partition.NewMemory()
	if placer != nil {
		pa := *placer
		pa.Meta, pa.Memory, pa.Topo = meta, mem, partTopo
		sched.New(ex, sched.Policy{MinShards: partShards, MaxShards: partShards}, pa)
	}
	srv := apps.NewPartitionServer(ex, apps.PartitionConfig{
		Meta: meta, Memory: mem, Cost: vclock.Default(),
		WorkingSet: partWorkingSet, Compute: partCompute, Class: "visit",
	})
	srv.Resident(residents)
	return &partRun{name: name, ex: ex, srv: srv, mem: mem, meta: meta}, nil
}

func (w *partitionWorkload) setup(traced bool) (pass, error) {
	g0 := time.Now()
	stream := apps.GenPartitionVisits(w.seed, partUsers, partVisits, partSkew)
	genDur := time.Since(g0)
	keys := make([]uint64, partHottestOver)
	for i := range keys {
		keys[i] = stream[i].Key
	}
	h0 := time.Now()
	hot := workload.Hottest(keys, partResidents)
	hotDur := time.Since(h0)

	p := &partitionPass{stream: stream, traced: traced, setup: map[string]float64{
		"workload.gen_s": genDur.Seconds(), "workload.hottest_s": hotDur.Seconds(),
	}}
	hashMeta := partition.New(partition.Hash, partHashParts, partUsers)
	packPreferred(hashMeta, stream, partShards)
	// The melt: range partition i statically preferred onto shard i funnels
	// the Zipf head onto shard 0; the spill guard is opened wide so the
	// misconfiguration stands until the mid-window drill splits it.
	meltMeta := partition.New(partition.Range, partShards, partUsers)
	for i := 0; i < partShards; i++ {
		meltMeta.Prefer(i, i)
	}
	for _, c := range []struct {
		name      string
		placer    *sched.PartitionAware
		meta      *partition.Meta
		residents []uint64
	}{
		{"partition-aware", &sched.PartitionAware{}, hashMeta, nil},
		{"melt + rebalance", &sched.PartitionAware{SpillThreshold: 4 * partResidents}, meltMeta, hot},
		{"round-robin", nil, nil, nil},
	} {
		r, err := newPartRun(c.name, c.placer, c.meta, c.residents)
		if err != nil {
			p.close()
			return nil, err
		}
		r.drill = len(c.residents) > 0
		p.runs = append(p.runs, r)
	}
	return p, nil
}

func (p *partitionPass) close() {
	for _, r := range p.runs {
		if r.ex != nil {
			r.ex.Close()
		}
	}
}

func (p *partitionPass) run() *passOut {
	out := newPassOut(p.setup)
	cost := vclock.Default()
	warm := cost.APIFixed + cost.ComputeCost(partCompute, 1)
	ideal := warm * vclock.Duration(len(p.stream))
	var served [][]apps.PartitionResult
	for _, r := range p.runs {
		var drill func()
		drillAt := 0
		if r.drill {
			drillAt = len(p.stream) / 2
			drill = func() {
				hp := hottestPart(r.meta)
				part := r.meta.Parts[hp]
				at := loadMidpoint(p.stream[:drillAt], part.Lo, part.Hi)
				t0 := time.Now()
				_, moved, err := sched.RebalancePartitionAt(r.ex, r.meta, r.mem, partTopo, cost,
					hp, at, partShards/2, partWorkingSet)
				if p.traced {
					out.set("sched.rebalance_host_ms", float64(time.Since(t0))/1e6)
				}
				if err != nil {
					out.fail(1, fmt.Sprintf("rebalance drill: %v", err))
				}
				out.set("sched.moved_sessions", float64(moved))
			}
		}
		var results []apps.PartitionResult
		out.serve(func() {
			results = r.srv.ServeVisits(p.stream, drillAt, drill)
			r.srv.FinishResident()
		})
		out.ops += len(results)
		for i, res := range results {
			if res.Err != nil {
				out.fail(1, fmt.Sprintf("%s visit %d: %v", r.name, i, res.Err))
			} else if res.Value != visitValue(p.stream[i].Key, p.stream[i].Seq) {
				out.fail(1, fmt.Sprintf("%s visit %d: value differs from the FNV-1a reference", r.name, i))
			}
		}
		served = append(served, results)

		lat, waits := r.ex.Latencies(), r.ex.QueueWaits()
		svc := serviceSum(lat, waits)
		crit := r.ex.CriticalPath()
		coldMisses := r.ex.Metrics().Snapshot().ColdMisses
		r.ex.Close()
		r.ex, r.srv = nil, nil // let the collector take the pool's memory
		switch r.name {
		case "round-robin":
			out.set("virt_overhead_noldc_pct", metrics.Overhead(ideal, svc))
		case "partition-aware":
			out.setTails(lat, "per visit, partition-aware")
			out.set("virt_overhead_pct", metrics.Overhead(ideal, svc))
			out.note("virt_overhead_pct", "service over the all-warm ideal")
			out.set("virt_max_rps", float64(partShards)*float64(len(p.stream))/svc.Seconds())
			out.note("virt_max_rps", "pool service capacity in visits per virtual second")
			out.set("executor.queue_wait_p50_us", us(waits.P50()))
			out.set("executor.queue_wait_tail_us", us(tailOf(waits).Value))
			out.set("executor.busy_ratio", float64(svc)/float64(partShards*crit))
			out.set("executor.critical_path_ms", float64(crit)/1e6)
			out.set("partition.warm_ratio", r.mem.HitRatio())
			out.set("partition.cold_misses", float64(coldMisses))
			out.set("vclock.samples", float64(lat.Len()))
			if p.traced {
				t0 := time.Now()
				lat.P50()
				out.set("vclock.percentile_host_ms", float64(time.Since(t0))/1e6)
			}
		}
	}
	// The drill is control-plane only: the rebalanced pass serves exactly
	// what the partition-aware pass served.
	for i := range served[0] {
		if served[0][i] != served[1][i] {
			out.fail(1, fmt.Sprintf("visit %d: rebalance pass served %d, no-drill pass %d", i, served[1][i].Value, served[0][i].Value))
		}
	}
	out.set("core.calls", 0)
	if p.traced {
		out.set("executor.serve_host_s", out.host.Seconds())
	}
	return out
}

// packPreferred prefers each partition onto a shard by greedy bin packing
// of the observed visit mass, heaviest partition first.
func packPreferred(meta *partition.Meta, visits []apps.PartitionVisit, shards int) {
	mass := make([]int, len(meta.Parts))
	for _, v := range visits {
		if p := meta.PartitionOf(v.Key); p >= 0 {
			mass[p]++
		}
	}
	order := make([]int, len(mass))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if mass[order[i]] != mass[order[j]] {
			return mass[order[i]] > mass[order[j]]
		}
		return order[i] < order[j]
	})
	load := make([]int, shards)
	for _, id := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		meta.Prefer(id, best)
		load[best] += mass[id]
	}
}

// loadMidpoint is the smallest key in (lo, hi) with at least half the
// range's observed visits below it, or 0 when the traffic cannot be halved.
func loadMidpoint(visits []apps.PartitionVisit, lo, hi uint64) uint64 {
	counts := map[uint64]int{}
	total := 0
	for _, v := range visits {
		if v.Key >= lo && v.Key < hi {
			counts[v.Key]++
			total++
		}
	}
	if total < 2 {
		return 0
	}
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	acc := 0
	for _, k := range keys {
		acc += counts[k]
		if acc*2 >= total {
			if at := k + 1; at > lo && at < hi {
				return at
			}
			return 0
		}
	}
	return 0
}

// hottestPart is the partition with the most recorded sessions (lowest id
// on ties).
func hottestPart(meta *partition.Meta) int {
	best := 0
	for i, p := range meta.Parts {
		if p.Sessions > meta.Parts[best].Sessions {
			best = i
		}
	}
	return best
}
