package main

import (
	"fmt"
	"time"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/trace"
	"freepart.dev/freepart/internal/vclock"
)

// appsScale is the Fig. 13 input scale: large enough that the apps are
// compute-dominated, as with the paper's 1.7 MB inputs.
const appsScale = 8

// The three executors every app runs under, in run order.
const (
	modeDirect = iota
	modeLDC
	modeNoLDC
	numModes
)

var modeNames = [numModes]string{"direct", "ldc", "noldc"}

// appsWorkload is the closed loop of the paper's evaluation: one caller runs
// the 23 apps at scale 8 under core.Direct, FreePart with lazy data copy and
// FreePart without it. Inputs come from the per-app seeds fixed in
// internal/apps (the paper configuration), so the seed argument is unused.
type appsWorkload struct{}

// noLDCDivergent lists the apps whose outputs under FreePart without lazy
// data copy differ from their direct outputs in the program as it stands.
// On the eager-copy path an agent rebuilds each object argument from its
// payload and never sends an in-place mutation back to the host
// (framework.Reply.UpdatedArgs is never filled), so the Kalman filter state
// of FaceTracker and SiamMask and the weights FAIRSEQ and PyTorch-GAN train
// and save do not persist across calls. A run prints these as known defects
// instead of failing on them; every other mismatch fails it, and a listed
// app that stops differing is printed too so the entry can be removed.
var noLDCDivergent = map[string]bool{
	"FaceTracker": true, "SiamMask": true, "FAIRSEQ": true, "PyTorch-GAN": true,
}

// The reference is the direct run of each app, served inside every pass.
func (appsWorkload) prepare() error { return nil }

type appRun struct {
	app  apps.App
	mode int
	env  *apps.Env
	rt   *core.Runtime
	tc   *tracedCaller
}

type appsPass struct {
	runs  []appRun
	spans [numModes]*spans
	setup map[string]float64
}

// hybridCategorize runs the trace suite and the hybrid analyzer, as the
// paper's offline step does before any app is protected.
func hybridCategorize(reg *framework.Registry) *analysis.Categorization {
	k := kernel.New()
	runner := trace.NewRunner(reg)
	trace.RunSuite(k, runner)
	return analysis.New(reg, runner.Recorder).Categorize()
}

func (appsWorkload) setup(traced bool) (pass, error) {
	reg := all.Registry()
	t0 := time.Now()
	cat := hybridCategorize(reg)
	catDur := time.Since(t0)

	p := &appsPass{}
	for m := range p.spans {
		p.spans[m] = newSpans(traced, cat)
	}
	var genDur time.Duration
	for _, a := range apps.All() {
		for m := 0; m < numModes; m++ {
			k := kernel.New()
			var inner core.Caller
			var rt *core.Runtime
			if m == modeDirect {
				inner = core.NewDirect(k, reg)
			} else {
				cfg := core.Default()
				cfg.LazyDataCopy = m == modeLDC
				var err error
				if rt, err = core.New(k, reg, cat, cfg); err != nil {
					p.close()
					return nil, fmt.Errorf("%s %s: %w", a.Name, modeNames[m], err)
				}
				inner = rt
			}
			tc := newTracedCaller(inner, k.Clock, p.spans[m])
			g0 := time.Now()
			env := apps.NewEnvScaled(k, tc, a, appsScale)
			genDur += time.Since(g0)
			env.Rt = rt
			p.runs = append(p.runs, appRun{app: a, mode: m, env: env, rt: rt, tc: tc})
		}
	}
	p.setup = map[string]float64{
		"analysis.categorize_s": catDur.Seconds(),
		"workload.gen_s":        genDur.Seconds(),
	}
	return p, nil
}

func (p *appsPass) close() {
	for _, r := range p.runs {
		if r.rt != nil {
			r.rt.Close()
		}
	}
}

// outputDigest folds everything an app produced: the plain results and
// fetched payloads its calls returned, then every file under its directory.
func outputDigest(r appRun) uint64 {
	h := r.tc.digest
	for _, path := range r.env.K.FS.List(r.env.Dir + "/") {
		b, _ := r.env.K.FS.ReadFile(path)
		h = foldBytes(foldString(h, path), b)
	}
	return h
}

func (p *appsPass) run() *passOut {
	defer p.close()
	out := newPassOut(p.setup)
	var host [numModes]time.Duration
	var virt [numModes]vclock.Duration
	var snap [numModes]metrics.Snapshot
	var overhead [numModes]float64
	digests := map[int]uint64{}
	base := map[int]vclock.Duration{}
	for i, r := range p.runs {
		sp := p.spans[r.mode]
		before := sp.calls
		v0 := r.env.K.Clock.Now()
		var err error
		host[r.mode] += out.serve(func() { err = r.app.Run(r.env) })
		vd := r.env.K.Clock.Now() - v0
		virt[r.mode] += vd
		calls := sp.calls - before
		if r.rt != nil {
			snap[r.mode] = addSnapshots(snap[r.mode], r.rt.Metrics.Snapshot())
			overhead[r.mode] += metrics.Overhead(base[r.app.ID], vd)
			r.rt.Close()
		} else {
			base[r.app.ID] = vd
		}
		d := outputDigest(r)
		p.runs[i] = appRun{} // let the collector take the app's memory
		known := r.mode == modeNoLDC && noLDCDivergent[r.app.Name]
		switch {
		case err != nil:
			out.fail(calls, fmt.Sprintf("%s %s: %v", r.app.Name, modeNames[r.mode], err))
		case r.mode == modeDirect:
			digests[r.app.ID] = d
		case d != digests[r.app.ID] && known:
			out.known = append(out.known, fmt.Sprintf("%s %s: outputs differ from the direct run", r.app.Name, modeNames[r.mode]))
		case d != digests[r.app.ID]:
			out.fail(calls, fmt.Sprintf("%s %s: outputs differ from the direct run", r.app.Name, modeNames[r.mode]))
		case known:
			out.known = append(out.known, fmt.Sprintf("%s %s: no longer differs; remove it from noLDCDivergent", r.app.Name, modeNames[r.mode]))
		}
	}
	for _, sp := range p.spans {
		out.ops += sp.calls
	}

	n := float64(len(apps.All()))
	ldc := p.spans[modeLDC]
	out.set("virt_overhead_pct", overhead[modeLDC]/n)
	out.set("virt_overhead_noldc_pct", overhead[modeNoLDC]/n)
	out.setTails(&ldc.virt, "per FreePart call")
	out.set("virt_max_rps", float64(ldc.calls)/virt[modeLDC].Seconds())
	out.note("virt_max_rps", "FreePart calls per virtual second, one closed-loop caller")

	out.set("core.calls", float64(out.ops))
	out.set("core.call_virt_us.p50", us(ldc.virt.P50()))
	out.set("core.boundary_virt_s", (virt[modeLDC] - virt[modeDirect]).Seconds())
	out.setCounters(snap[modeLDC], snap[modeNoLDC])
	if ldc.traced {
		out.setCallSpans(p.spans[:]...)
		out.setCodec(ldc.mix)
		out.set("apps.run_host_s.direct", host[modeDirect].Seconds())
		out.set("apps.run_host_s.ldc", host[modeLDC].Seconds())
		out.set("apps.run_host_s.noldc", host[modeNoLDC].Seconds())
		out.set("core.boundary_host_s", (host[modeLDC] - host[modeDirect]).Seconds())
		out.set("framework.exec_host_s", covered(p.spans[modeDirect]).Seconds())
	}
	return out
}
