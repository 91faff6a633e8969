// Command perfbench is the repository's benchmark. One process runs one
// workload (apps, serving or partition) for a fixed host time, checks every
// output against a reference, checks that every virtual-time result and
// count repeats bit for bit across passes and in a second process, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// alternates untraced and traced passes and reports the per-layer metrics,
// the tracing overhead and CPU-profile shares.
//
// Two clocks appear in the output. Host metrics (setup_s, host_*,
// peak_rss_mb, *_host_*) time the simulator on real cores; setup_s and
// host_ops_per_cpu_s count process CPU time, which other tenants of a
// shared machine cannot steal, and the run prints the wall-clock figures
// beside them. Virtual metrics (virt_*, units virt_us, virt_ms, virt_s,
// 1/virt_s) are read from the modelled system's clocks and are
// deterministic for a given seed.
//
// Usage (from the repository root, after building with perfbench/run.py):
//
//	perfbench -workload serving -seed 1 -seconds 15 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// benchWorkload is one set of inputs the benchmark runs.
type benchWorkload interface {
	// prepare computes the correctness reference. It runs once, before
	// any timing.
	prepare() error
	// setup builds everything one pass consumes; its host time is setup_s.
	// traced installs the full span recording in the core.Caller decorator.
	setup(traced bool) (pass, error)
}

// pass is one timed unit of work, built by setup and consumed by run.
type pass interface {
	run() *passOut
	close()
}

func newWorkload(name string, seed int64) (benchWorkload, error) {
	switch name {
	case "apps":
		return appsWorkload{}, nil
	case "serving":
		return &servingWorkload{seed: seed}, nil
	case "partition":
		return &partitionWorkload{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want apps, serving or partition)", name)
}

// minSetups is how many times a run sets up, at least, so setup_s is a
// median; minPasses is how many passes it serves, at least, so the
// in-process determinism check has a repeat to compare.
const (
	minSetups = 3
	minPasses = 2
)

// passOut is what one pass measured.
type passOut struct {
	ops      int
	failed   int
	failures []string
	known    []string // divergences from a known program defect, printed but not failed
	vals     map[string]float64
	notes    map[string]string
	traced   bool

	// Host cost of the pass's calls into the program (see serve): wall
	// time, process CPU time and heap allocations.
	host    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func newPassOut(setup map[string]float64) *passOut {
	o := &passOut{vals: map[string]float64{}, notes: map[string]string{}}
	for k, v := range setup {
		o.set(k, v)
	}
	return o
}

func (o *passOut) set(name string, v float64) {
	if _, ok := byName[name]; !ok {
		panic("perfbench: metric missing from the catalog: " + name)
	}
	o.vals[name] = v
}

func (o *passOut) note(name, s string) { o.notes[name] = s }

// serve runs one call into the program and adds its wall time, process CPU
// time and allocations to the pass; the benchmark's own bookkeeping around
// the calls (references, percentiles, replays) stays out of the host
// metrics. It returns the call's wall time.
func (o *passOut) serve(call func()) time.Duration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0, c0 := time.Now(), cpuTime()
	call()
	o.cpu += cpuTime() - c0
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	o.host += d
	o.mallocs += m1.Mallocs - m0.Mallocs
	o.bytes += m1.TotalAlloc - m0.TotalAlloc
	return d
}

// fail counts n failed ops (at least one) and records why.
func (o *passOut) fail(n int, why string) {
	if n < 1 {
		n = 1
	}
	o.failed += n
	o.failures = append(o.failures, why)
}

// setTails records virt_p50_us and virt_tail_us of l.
func (o *passOut) setTails(l *vclock.Latencies, what string) {
	t := tailOf(l)
	o.set("virt_p50_us", us(l.P50()))
	o.note("virt_p50_us", fmt.Sprintf("%s, n=%d", what, t.N))
	o.set("virt_tail_us", us(t.Value))
	o.note("virt_tail_us", t.String(what))
}

func (t tail) String(what string) string {
	return fmt.Sprintf("%s, p%g with %d of %d samples beyond", what, t.Pct, t.Beyond, t.N)
}

// setCounters records the runtime counters of the protected runs: ldc
// sums the FreePart-with-LDC runtimes, noldc those without LDC.
func (o *passOut) setCounters(ldc, noldc metrics.Snapshot) {
	o.set("ipc.round_trips", float64(ldc.IPCCalls))
	o.set("ipc.bytes_moved", float64(ldc.BytesMoved))
	o.set("ipc.bytes_per_round_trip", ratio(float64(ldc.BytesMoved), float64(ldc.IPCCalls)))
	o.set("ipc.bytes_moved.noldc", float64(noldc.BytesMoved))
	o.set("object.lazy_copies", float64(ldc.LazyCopies))
	o.set("object.eager_copies", float64(ldc.EagerCopies))
	o.set("object.lazy_fraction", ldc.LazyFraction())
	o.set("object.checkpoints", float64(ldc.Checkpoints))
	o.set("mem.perm_flips", float64(ldc.PermFlips))
	o.set("mem.pages_flipped", float64(ldc.PagesFlip))
	o.set("kernel.syscall_denials", float64(ldc.Denials+noldc.Denials))
}

// addSnapshots sums the counters setCounters reads.
func addSnapshots(a, b metrics.Snapshot) metrics.Snapshot {
	a.IPCCalls += b.IPCCalls
	a.BytesMoved += b.BytesMoved
	a.LazyCopies += b.LazyCopies
	a.EagerCopies += b.EagerCopies
	a.PermFlips += b.PermFlips
	a.PagesFlip += b.PagesFlip
	a.Denials += b.Denials
	a.Checkpoints += b.Checkpoints
	return a
}

// setCallSpans records the host-time view of the decorator's spans.
func (o *passOut) setCallSpans(sps ...*spans) {
	var host []time.Duration
	byType := map[framework.APIType]time.Duration{}
	for _, sp := range sps {
		for _, h := range sp.host {
			host = append(host, h.d)
		}
		for t, d := range sp.typeHost {
			byType[t] += d
		}
	}
	o.set("core.call_host_us.p50", float64(percentileDur(host, 50))/1e3)
	o.set("core.call_host_us.p99", float64(percentileDur(host, 99))/1e3)
	o.set("core.call_host_s.loading", byType[framework.TypeLoading].Seconds())
	o.set("core.call_host_s.processing", byType[framework.TypeProcessing].Seconds())
	o.set("core.call_host_s.visualizing", byType[framework.TypeVisualizing].Seconds())
	o.set("core.call_host_s.storing", byType[framework.TypeStoring].Seconds())
}

// setCodec replays the recorded call mix through the framework codec: the
// host cost of EncodeCall+DecodeCall per call and the encoded size.
func (o *passOut) setCodec(mix []framework.Call) {
	if len(mix) == 0 {
		return
	}
	var wire int
	t0 := time.Now()
	for _, c := range mix {
		b, err := framework.EncodeCall(c)
		if err == nil {
			_, err = framework.DecodeCall(b)
		}
		if err != nil {
			o.fail(1, fmt.Sprintf("codec replay of %s: %v", c.API, err))
			continue
		}
		wire += len(b)
	}
	n := float64(len(mix))
	o.set("framework.codec_ns_per_call", float64(time.Since(t0).Nanoseconds())/n)
	o.set("framework.wire_bytes_per_call", float64(wire)/n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fingerprint is every deterministic value of a pass: the virtual metrics
// and the counts. The determinism gate compares fingerprints.
func (o *passOut) fingerprint() map[string]float64 {
	fp := map[string]float64{}
	for name, v := range o.vals {
		if byName[name].kind == kindDet {
			fp[name] = v
		}
	}
	return fp
}

// diffFingerprints names every value that differs between a and b.
func diffFingerprints(a, b map[string]float64) []string {
	var diff []string
	for _, d := range catalog {
		va, oka := a[d.name]
		vb, okb := b[d.name]
		if oka != okb || math.Float64bits(va) != math.Float64bits(vb) {
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", d.name, va, vb))
		}
	}
	return diff
}

type opts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
}

// outcome is one run's result.
type outcome struct {
	correct           bool
	attempted, failed int
	problems          []string
	known             []string
	vals              map[string]float64
	notes             map[string]string
}

func (r *outcome) problem(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func runBench(o opts) (*outcome, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var setups, setupWalls []float64
	setup := func(traced bool) (pass, error) {
		runtime.GC() // the previous pass's garbage is not set-up work
		t0, c0 := time.Now(), cpuTime()
		p, err := w.setup(traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
		return p, nil
	}
	var passes []*passOut
	start := time.Now()
	for i := 0; ; i++ {
		traced := o.traced && i%2 == 1
		p, err := setup(traced)
		if err != nil {
			return nil, err
		}
		out, err := measure(p, traced && !anyTraced(passes))
		if err != nil {
			return nil, err
		}
		out.traced = traced
		passes = append(passes, out)
		if time.Since(start).Seconds() >= o.seconds && len(passes) >= minPasses {
			break
		}
	}
	for len(setups) < minSetups {
		p, err := setup(false)
		if err != nil {
			return nil, err
		}
		p.close()
	}

	r := &outcome{correct: true, vals: map[string]float64{}, notes: map[string]string{}}
	var rates, tracedRates, wallRates []float64
	var mallocs, bytes uint64
	ops := 0
	for _, p := range passes {
		r.attempted += p.ops
		r.failed += p.failed
		for _, f := range p.failures {
			r.problem("%s", f)
		}
		rate := float64(p.ops) / p.cpu.Seconds()
		if p.traced {
			tracedRates = append(tracedRates, rate)
			continue
		}
		rates = append(rates, rate)
		wallRates = append(wallRates, float64(p.ops)/p.host.Seconds())
		mallocs += p.mallocs
		bytes += p.bytes
		ops += p.ops
	}

	// Determinism gate: every pass against the first, then the first
	// against a fresh process.
	first := passes[0].fingerprint()
	for i, p := range passes[1:] {
		for _, d := range diffFingerprints(first, p.fingerprint()) {
			r.problem("determinism: pass %d differs from pass 1: %s", i+2, d)
		}
	}
	child, err := childFingerprint(o)
	if err != nil {
		r.problem("determinism: second process: %v", err)
	} else {
		for _, d := range diffFingerprints(first, child) {
			r.problem("determinism: second process differs: %s", d)
		}
	}

	r.known = passes[0].known
	for name, v := range passes[0].vals {
		r.vals[name] = v
	}
	for name, n := range passes[0].notes {
		r.notes[name] = n
	}
	for _, d := range catalog {
		switch d.kind {
		case kindSetup:
			var xs []float64
			for _, p := range passes {
				xs = append(xs, p.vals[d.name])
			}
			r.vals[d.name] = median(xs)
		case kindTraced:
			var xs []float64
			for _, p := range passes {
				if v, ok := p.vals[d.name]; ok && p.traced {
					xs = append(xs, v)
				}
			}
			r.vals[d.name] = median(xs)
		}
	}
	r.vals["setup_s"] = median(setups)
	r.notes["setup_s"] = fmt.Sprintf("CPU seconds, median of %d set-ups; %.6g s wall", len(setups), median(setupWalls))
	r.vals["host_ops_per_cpu_s"] = median(rates)
	r.notes["host_ops_per_cpu_s"] = fmt.Sprintf("median of %d untraced passes (%.6g to %.6g), %d ops; %.6g ops per wall second",
		len(rates), slices.Min(rates), slices.Max(rates), ops, median(wallRates))
	r.vals["host_allocs_per_op"] = ratio(float64(mallocs), float64(ops))
	r.vals["host_alloc_bytes_per_op"] = ratio(float64(bytes), float64(ops))
	r.vals["peak_rss_mb"] = peakRSSMB()
	if o.traced {
		r.vals["trace.host_ops_per_cpu_s.untraced"] = median(rates)
		r.vals["trace.host_ops_per_cpu_s.traced"] = median(tracedRates)
		r.vals["trace.overhead_pct"] = 100 * (ratio(median(rates), median(tracedRates)) - 1)
	}
	if r.failed > 0 {
		r.correct = false
	}
	return r, nil
}

func anyTraced(ps []*passOut) bool {
	for _, p := range ps {
		if p.traced {
			return true
		}
	}
	return false
}

// measure runs one pass on a clean heap. With profile set it also takes the
// pass's CPU profile and reads the host shares of the codec, futex and GC
// from it.
func measure(p pass, profile bool) (*passOut, error) {
	defer p.close()
	runtime.GC()
	var prof *os.File
	if profile {
		f, err := os.CreateTemp("", "perfbench-*.pprof")
		if err != nil {
			return nil, err
		}
		defer os.Remove(f.Name())
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		prof = f
	}
	out := p.run()
	if prof != nil {
		pprof.StopCPUProfile()
	}
	if prof != nil {
		shares, err := profileShares(prof.Name())
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		for name, v := range shares {
			out.set(name, v)
		}
	}
	return out, nil
}

// childFingerprint runs one untraced pass of the same workload and seed in
// a second process and returns its fingerprint.
func childFingerprint(o opts) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-fingerprint")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var fp map[string]float64
	if err := json.Unmarshal(stdout.Bytes(), &fp); err != nil {
		return nil, err
	}
	return fp, nil
}

// fingerprintOnce is the child side of the determinism gate.
func fingerprintOnce(o opts) error {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return err
	}
	if err := w.prepare(); err != nil {
		return err
	}
	p, err := w.setup(false)
	if err != nil {
		return err
	}
	defer p.close()
	return json.NewEncoder(os.Stdout).Encode(p.run().fingerprint())
}

// cpuTime is the CPU time, user plus system over all threads, the process
// has used. The bounded host metrics are CPU-time based: on a shared
// machine the wall clock also counts the time other tenants steal.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// print writes the human-readable report and, last, the JSON line.
func (r *outcome) print(o opts) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n",
		o.workload, o.seed, o.seconds, o.traced, runtime.GOMAXPROCS(0))
	names := make([]string, 0, len(r.vals))
	for name := range r.vals {
		names = append(names, name)
	}
	sort.SliceStable(names, func(i, j int) bool { return byName[names[i]].order < byName[names[j]].order })
	for _, name := range names {
		d := byName[name]
		if d.layer && !o.traced {
			continue
		}
		line := fmt.Sprintf("  %-34s %16.6f %-8s", name, r.vals[name], d.unit)
		if n := r.notes[name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Println(line)
	}
	fmt.Printf("  %-34s %16.6f %-8s  (%d failed of %d attempted)\n", "fail_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.failed, r.attempted)
	for _, k := range r.known {
		fmt.Println("KNOWN DEFECT:", k)
	}
	const maxShown = 20
	for i, p := range r.problems {
		if i == maxShown {
			fmt.Printf("FAIL: ... and %d more\n", len(r.problems)-maxShown)
			break
		}
		fmt.Println("FAIL:", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, d := range catalog {
		if d.layer == o.traced {
			ms[d.name] = value{r.vals[d.name], d.unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Println(string(line))
}

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "", "apps, serving or partition")
	flag.Int64Var(&o.seed, "seed", 1, "input seed (serving and partition)")
	flag.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure")
	trace := flag.Int("trace", 0, "1 runs traced passes and reports per-layer metrics")
	fp := flag.Bool("fingerprint", false, "run one untraced pass and print its deterministic values (the determinism gate's second process)")
	flag.Parse()
	o.traced = *trace == 1

	if *fp {
		if err := fingerprintOnce(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	r, err := runBench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.print(o)
	if !r.correct {
		os.Exit(1)
	}
}
