package report

import (
	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/vclock"
)

// ServingResult is one row of the serving-layer scaling experiment: a
// request stream served by an executor with a given shard count, measured
// entirely in virtual time so the numbers are machine-independent.
type ServingResult struct {
	// Shards is the executor's shard (worker) count.
	Shards int `json:"shards"`
	// Requests is the stream length.
	Requests int `json:"requests"`
	// Served is how many requests succeeded.
	Served int `json:"served"`
	// RPS is virtual-time throughput: requests per virtual second, i.e.
	// Requests divided by the critical-path time across shards.
	RPS float64 `json:"rps"`
	// Speedup is RPS relative to the 1-shard row.
	Speedup float64 `json:"speedup"`
	// P50/P95/P99 are per-request virtual latencies in nanoseconds.
	P50 vclock.Duration `json:"p50_ns"`
	P95 vclock.Duration `json:"p95_ns"`
	P99 vclock.Duration `json:"p99_ns"`
	// CriticalPath is the max-merged virtual time across shard clocks.
	CriticalPath vclock.Duration `json:"critical_path_ns"`
	// TotalWork is the summed virtual time across shard clocks; divided by
	// CriticalPath it is the run's effective parallelism.
	TotalWork vclock.Duration `json:"total_work_ns"`
}

// MeasureServing runs the detection service over the same request stream at
// each shard count and reports virtual throughput and latency percentiles.
// Every run is deterministic: seeded inputs, round-robin placement, and
// per-shard virtual clocks joined by max-merge.
func MeasureServing(shardCounts []int, requests int) ([]ServingResult, error) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	reqs := apps.GenDetectionRequests(7, requests)
	// Closed-loop capacity measurement: strip the open-loop arrival stamps so
	// each shard crunches its queue back to back. With stamps kept, throughput
	// is bounded by the arrival rate and the scaling signal disappears (every
	// shard count serves the stream in roughly the arrival span).
	for i := range reqs {
		reqs[i].Arrival = 0
	}

	out := make([]ServingResult, 0, len(shardCounts))
	var baseRPS float64
	for _, n := range shardCounts {
		ex, err := core.NewExecutor(n, core.ProtectedShards(reg, cat, core.Default()))
		if err != nil {
			return nil, err
		}
		srv, err := apps.ProvisionDetection(ex)
		if err != nil {
			ex.Close()
			return nil, err
		}
		// Measure serving steady state: rewind shard clocks so the one-time
		// provisioning cost (runtime boot, model load — identical on every
		// shard) does not dilute the scaling signal.
		for i := 0; i < ex.Shards(); i++ {
			ex.Shard(i).K.Clock.Reset()
		}
		results := srv.Serve(reqs)
		crit := ex.CriticalPath()
		r := ServingResult{
			Shards:       n,
			Requests:     len(reqs),
			Served:       apps.Served(results),
			P50:          ex.Latencies().P50(),
			P95:          ex.Latencies().P95(),
			P99:          ex.Latencies().P99(),
			CriticalPath: crit,
			TotalWork:    ex.TotalWork(),
		}
		if crit > 0 {
			r.RPS = float64(len(reqs)) / crit.Seconds()
		}
		if baseRPS == 0 {
			baseRPS = r.RPS
		}
		if baseRPS > 0 {
			r.Speedup = r.RPS / baseRPS
		}
		ex.Close()
		out = append(out, r)
	}
	return out, nil
}

// TableServing runs the serving experiment at 1/2/4/8 shards and renders
// it, optionally writing the rows as JSON to jsonPath (the
// BENCH_serving.json artifact).
func TableServing(requests int, jsonPath string) (string, error) {
	results, err := MeasureServing([]int{1, 2, 4, 8}, requests)
	if err != nil {
		return "", err
	}
	return RenderServing(results).emit(results, jsonPath)
}

// RenderServing lays out serving rows: throughput, speedup, percentiles and
// the effective parallelism of each shard count.
func RenderServing(results []ServingResult) Tables {
	t := &Table{
		Title:  "Serving: session-sharded executor scaling (detection pipeline, virtual time)",
		Header: []string{"Shards", "Requests", "Served", "RPS", "Speedup", "p50", "p95", "p99", "Critical path", "Parallelism"},
	}
	for _, r := range results {
		par := 0.0
		if r.CriticalPath > 0 {
			par = float64(r.TotalWork) / float64(r.CriticalPath)
		}
		t.Add(d(r.Shards), d(r.Requests), d(r.Served), f1(r.RPS), f2(r.Speedup),
			r.P50.String(), r.P95.String(), r.P99.String(), r.CriticalPath.String(), f2(par))
	}
	t.Notes = append(t.Notes,
		"RPS is requests per virtual second: requests / max-merged shard clock (critical path).",
		"Parallelism is total shard work / critical path; ideal equals the shard count.")
	return Tables{t}
}
