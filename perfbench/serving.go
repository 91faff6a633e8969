package main

import (
	"fmt"
	"time"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// The serving workload: an open loop in virtual time. The detection stream
// runs on a 4-shard protected pool at each rung of a fixed rate ladder;
// every request is timed from its arrival stamp. The ladder brackets the
// pool's capacity (about 61.5k req/s from a 65 µs mean service time), so
// the lower rungs show the unloaded tail and the top rung a growing
// backlog. 4000 requests per rung put 40 samples beyond p99.
const (
	servingShards   = 4
	servingRequests = 4000
	servingNominal  = 40000 // the rung the unsuffixed tail metrics report
	servingLimit    = 2 * time.Millisecond
)

var servingRungs = []int{20000, 40000, 50000, 60000, 70000}

type servingWorkload struct {
	seed int64

	// The direct-shard reference, computed once outside the timed phase:
	// each request's detection count and the stream's virtual service time.
	refObjects []int
	refService vclock.Duration
	refHost    time.Duration
}

// stamp returns the stream with arrivals spaced for rate req/s.
func stamp(reqs []apps.DetectionRequest, rate int) []apps.DetectionRequest {
	gap := vclock.Duration(int64(time.Second) / int64(rate))
	out := append([]apps.DetectionRequest(nil), reqs...)
	for i := range out {
		out[i].Arrival = vclock.Duration(i+1) * gap
	}
	return out
}

// provision builds a pool, loads the model on every shard, and rewinds the
// shard clocks so provisioning does not queue the first requests: the
// ladder measures the pool in steady state.
func provision(factory core.ShardFactory) (*core.Executor, *apps.DetectionServer, error) {
	ex, err := core.NewExecutor(servingShards, factory)
	if err != nil {
		return nil, nil, err
	}
	srv, err := apps.ProvisionDetection(ex)
	if err != nil {
		ex.Close()
		return nil, nil, err
	}
	for i := 0; i < ex.Shards(); i++ {
		ex.Shard(i).K.Clock.Reset()
	}
	return ex, srv, nil
}

func (w *servingWorkload) prepare() error {
	ex, srv, err := provision(core.DirectShards(all.Registry()))
	if err != nil {
		return err
	}
	defer ex.Close()
	reqs := stamp(apps.GenDetectionRequests(w.seed, servingRequests), servingNominal)
	t0 := time.Now()
	results := srv.Serve(reqs)
	w.refHost = time.Since(t0)
	w.refObjects = make([]int, len(results))
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("direct request %d: %w", i, r.Err)
		}
		w.refObjects[i] = r.Objects
	}
	w.refService = serviceSum(ex.Latencies(), ex.QueueWaits())
	return nil
}

// servingRun is one pool serving one stamped stream.
type servingRun struct {
	rate int
	ldc  bool
	reqs []apps.DetectionRequest
	ex   *core.Executor
	srv  *apps.DetectionServer
	base metrics.Snapshot // the shards' counters after provisioning
}

type servingPass struct {
	w     *servingWorkload
	runs  []*servingRun
	ldc   *spans
	noldc *spans
	setup map[string]float64
}

func (w *servingWorkload) setup(traced bool) (pass, error) {
	reg := all.Registry()
	t0 := time.Now()
	cat := analysis.New(reg, nil).Categorize()
	catDur := time.Since(t0)
	g0 := time.Now()
	reqs := apps.GenDetectionRequests(w.seed, servingRequests)
	genDur := time.Since(g0)

	p := &servingPass{w: w, ldc: newSpans(traced, cat), noldc: newSpans(traced, cat)}
	add := func(rate int, ldc bool, sp *spans) error {
		cfg := core.Default()
		cfg.LazyDataCopy = ldc
		ex, srv, err := provision(tracedShards(core.ProtectedShards(reg, cat, cfg), sp))
		if err != nil {
			return err
		}
		r := &servingRun{rate: rate, ldc: ldc, reqs: stamp(reqs, rate), ex: ex, srv: srv}
		for i := 0; i < ex.Shards(); i++ {
			r.base = addSnapshots(r.base, ex.Shard(i).Rt.Metrics.Snapshot())
		}
		p.runs = append(p.runs, r)
		return nil
	}
	for _, rate := range servingRungs {
		if err := add(rate, true, p.ldc); err != nil {
			p.close()
			return nil, err
		}
	}
	if err := add(servingNominal, false, p.noldc); err != nil {
		p.close()
		return nil, err
	}
	p.ldc.reset()
	p.noldc.reset()
	p.setup = map[string]float64{"analysis.categorize_s": catDur.Seconds(), "workload.gen_s": genDur.Seconds()}
	return p, nil
}

func (p *servingPass) close() {
	for _, r := range p.runs {
		if r.ex != nil {
			r.ex.Close()
		}
	}
}

// counters sums the shards' runtime counters accrued since provisioning.
func (r *servingRun) counters() metrics.Snapshot {
	var now metrics.Snapshot
	for i := 0; i < r.ex.Shards(); i++ {
		now = addSnapshots(now, r.ex.Shard(i).Rt.Metrics.Snapshot())
	}
	base := r.base
	return metrics.Snapshot{
		IPCCalls: now.IPCCalls - base.IPCCalls, BytesMoved: now.BytesMoved - base.BytesMoved,
		LazyCopies: now.LazyCopies - base.LazyCopies, EagerCopies: now.EagerCopies - base.EagerCopies,
		PermFlips: now.PermFlips - base.PermFlips, PagesFlip: now.PagesFlip - base.PagesFlip,
		Denials: now.Denials - base.Denials, Checkpoints: now.Checkpoints - base.Checkpoints,
	}
}

func rungName(rate int) string { return fmt.Sprintf("virt_tail_us.r%dk", rate/1000) }

func (p *servingPass) run() *passOut {
	out := newPassOut(p.setup)
	var ldc, noldc metrics.Snapshot
	maxRate := 0
	for _, r := range p.runs {
		var results []apps.DetectionResult
		host := out.serve(func() { results = r.srv.Serve(r.reqs) })
		out.ops += len(results)
		for i, res := range results {
			switch {
			case res.Err != nil:
				out.fail(1, fmt.Sprintf("rate %d request %d: %v", r.rate, i, res.Err))
			case res.Objects != p.w.refObjects[i]:
				out.fail(1, fmt.Sprintf("rate %d request %d: %d objects, direct reference %d", r.rate, i, res.Objects, p.w.refObjects[i]))
			}
		}

		lat, waits := r.ex.Latencies(), r.ex.QueueWaits()
		svc := serviceSum(lat, waits)
		overhead := metrics.Overhead(p.w.refService, svc)
		counters := r.counters()
		crit := r.ex.CriticalPath()
		r.ex.Close()
		r.ex, r.srv = nil, nil // let the collector take the pool's memory
		if !r.ldc {
			noldc = addSnapshots(noldc, counters)
			out.set("virt_overhead_noldc_pct", overhead)
			continue
		}
		ldc = addSnapshots(ldc, counters)
		t := tailOf(lat)
		if name := rungName(r.rate); byName[name].name != "" {
			out.set(name, us(t.Value))
			out.note(name, t.String(fmt.Sprintf("%d req/s", r.rate)))
		}
		// A rung holds when its tail meets the limit and the pool drains
		// within the limit after the last arrival (no growing backlog).
		drain := crit - r.reqs[len(r.reqs)-1].Arrival
		if t.Value <= servingLimit && drain <= servingLimit && r.rate > maxRate {
			maxRate = r.rate
		}
		if r.rate != servingNominal {
			continue
		}
		out.setTails(lat, fmt.Sprintf("per request at %d req/s", r.rate))
		out.set("virt_overhead_pct", overhead)
		out.set("executor.queue_wait_p50_us", us(waits.P50()))
		out.set("executor.queue_wait_tail_us", us(tailOf(waits).Value))
		out.set("executor.busy_ratio", float64(svc)/float64(servingShards*crit))
		out.set("executor.critical_path_ms", float64(crit)/1e6)
		out.set("core.boundary_virt_s", (svc - p.w.refService).Seconds())
		out.set("vclock.samples", float64(lat.Len()))
		if p.ldc.traced {
			out.set("core.boundary_host_s", (host - p.w.refHost).Seconds())
			t0 := time.Now()
			lat.P50()
			out.set("vclock.percentile_host_ms", float64(time.Since(t0))/1e6)
		}
	}
	out.set("virt_max_rps", float64(maxRate))
	out.note("virt_max_rps", fmt.Sprintf("highest rung with tail and drain within %v", servingLimit))

	out.set("core.calls", float64(p.ldc.calls+p.noldc.calls))
	out.set("core.call_virt_us.p50", us(p.ldc.virt.P50()))
	out.setCounters(ldc, noldc)
	if p.ldc.traced {
		out.setCallSpans(p.ldc, p.noldc)
		out.setCodec(p.ldc.mix)
		out.set("executor.serve_host_s", (out.host - covered(p.ldc, p.noldc)).Seconds())
	}
	return out
}
