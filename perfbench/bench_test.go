package main

import (
	"encoding/json"
	"os"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/report"
	"freepart.dev/freepart/internal/vclock"
)

// runPass sets up and serves one pass of w and fails the test on any error
// or failed op.
func runPass(t *testing.T, w benchWorkload, traced bool) *passOut {
	t.Helper()
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	p, err := w.setup(traced)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	out := p.run()
	if out.failed > 0 {
		t.Fatalf("%d failed ops: %v", out.failed, out.failures)
	}
	return out
}

// The apps workload's overheads are the Fig. 13 means report computes with
// no decorator in the way, bit for bit.
func TestAppsOverheadsMatchMeasureOverheads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 23 apps at scale 8 seven times")
	}
	out := runPass(t, appsWorkload{}, false)
	for _, c := range []struct {
		metric string
		ldc    bool
	}{{"virt_overhead_pct", true}, {"virt_overhead_noldc_pct", false}} {
		rows, err := report.MeasureOverheads(appsScale, c.ldc)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.Overhead
		}
		if got, want := out.vals[c.metric], sum/float64(len(rows)); got != want {
			t.Errorf("%s = %v, report.MeasureOverheads(%d, %v) mean = %v", c.metric, got, appsScale, c.ldc, want)
		}
	}
}

// The benchmark's serving pool, decorator included, reproduces the
// committed 4-shard row of BENCH_serving.json (seed 7, closed loop).
func TestServingReproducesBenchServing(t *testing.T) {
	b, err := os.ReadFile("../BENCH_serving.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []report.ServingResult
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	var want *report.ServingResult
	for i := range rows {
		if rows[i].Shards == servingShards {
			want = &rows[i]
		}
	}
	if want == nil {
		t.Fatalf("BENCH_serving.json has no %d-shard row", servingShards)
	}
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	ex, srv, err := provision(tracedShards(core.ProtectedShards(reg, cat, core.Default()), newSpans(true, cat)))
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	reqs := apps.GenDetectionRequests(7, want.Requests)
	for i := range reqs {
		reqs[i].Arrival = 0
	}
	if served := apps.Served(srv.Serve(reqs)); served != want.Served {
		t.Errorf("served %d, want %d", served, want.Served)
	}
	if p50, p99 := ex.Latencies().P50(), ex.Latencies().P99(); p50 != want.P50 || p99 != want.P99 {
		t.Errorf("p50 %d p99 %d, BENCH_serving.json has %d and %d", p50, p99, want.P50, want.P99)
	}
}

// Tracing reads clocks and copies calls but moves no virtual result: a
// traced pass and an untraced pass have equal fingerprints, and the
// serving tails equal those of a pool with no decorator at all.
func TestDecoratorLeavesVirtualResultsIdentical(t *testing.T) {
	names := []string{"serving", "partition", "apps"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			plain, traced := runPass(t, w, false), runPass(t, w, true)
			for _, d := range diffFingerprints(plain.fingerprint(), traced.fingerprint()) {
				t.Error(d)
			}
			if name != "serving" {
				return
			}
			reg := all.Registry()
			cat := analysis.New(reg, nil).Categorize()
			ex, srv, err := provision(core.ProtectedShards(reg, cat, core.Default()))
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			srv.Serve(stamp(apps.GenDetectionRequests(3, servingRequests), servingNominal))
			lat := ex.Latencies()
			if got, want := traced.vals["virt_p50_us"], us(lat.P50()); got != want {
				t.Errorf("virt_p50_us %v, undecorated pool %v", got, want)
			}
			if got, want := traced.vals["virt_tail_us"], us(tailOf(lat).Value); got != want {
				t.Errorf("virt_tail_us %v, undecorated pool %v", got, want)
			}
		})
	}
}

func TestTailOf(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
	}{{1084, 99, 10}, {4000, 99, 40}, {99999, 99.9, 99}, {400000, 99.99, 40}, {50, 99, 0}} {
		var l vclock.Latencies
		for i := 0; i < c.n; i++ {
			l.Add(vclock.Duration(i))
		}
		got := tailOf(&l)
		if got.Pct != c.pct || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: %+v, want p%g with %d beyond", c.n, got, c.pct, c.beyond)
		}
		if want := l.Percentile(c.pct); got.Value != want {
			t.Errorf("n=%d: value %v, want %v", c.n, got.Value, want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	raw := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.futex
             runtime.futexsleep
             main.main
-----------+-------------------------------------------------------
      50ms   encoding/gob.(*Encoder).Encode
             freepart.dev/freepart/internal/framework.EncodeCall
             main.main
-----------+-------------------------------------------------------
      20ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker (inline)
-----------+-------------------------------------------------------
`)
	got, err := parseTraces(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"host_share.futex": 0.3, "host_share.codec": 0.5, "host_share.gc": 0.2}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

// BENCHMARK.json declares exactly the catalog: names, units, directions,
// bounds and which metrics are per-layer.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var got []def
	for _, m := range spec.EndToEnd {
		got = append(got, def{name: m.Name, unit: m.Unit, better: m.Better, bound: m.Bound})
	}
	for _, m := range spec.PerLayer {
		got = append(got, def{name: m.Name, unit: m.Unit, better: m.Better, layer: true})
	}
	if len(got) != len(catalog) {
		t.Fatalf("BENCHMARK.json declares %d metrics, the catalog %d", len(got), len(catalog))
	}
	for i, d := range catalog {
		g := got[i]
		if g.name != d.name || g.unit != d.unit || g.better != d.better || g.bound != d.bound || g.layer != d.layer {
			t.Errorf("metric %d: BENCHMARK.json %+v, catalog %+v", i, g, d)
		}
	}
}
