package main

import (
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/vclock"
)

// spans collects what the benchmark observes at the core.Caller boundary
// during one pass. Every call records its virtual latency (the per-call
// virtual metrics need it, so the untraced run keeps this much). When
// traced is set, each call also records its host duration, its API type's
// host time, and a copy of the call for the codec replay; those are the
// per-layer numbers, and their cost is the tracing overhead.
type spans struct {
	traced bool
	cat    *analysis.Categorization

	mu       sync.Mutex
	calls    int
	virt     vclock.Latencies
	host     []hostSpan
	typeHost map[framework.APIType]time.Duration
	mix      []framework.Call
}

func newSpans(traced bool, cat *analysis.Categorization) *spans {
	return &spans{traced: traced, cat: cat, typeHost: make(map[framework.APIType]time.Duration)}
}

// hostSpan is one call's host interval.
type hostSpan struct {
	start time.Time
	d     time.Duration
}

// covered is the host time at least one call of sps was running: the
// union of their intervals, so concurrent shards are not counted twice.
func covered(sps ...*spans) time.Duration {
	var all []hostSpan
	for _, sp := range sps {
		all = append(all, sp.host...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start.Before(all[j].start) })
	var sum time.Duration
	var end time.Time
	for _, h := range all {
		e := h.start.Add(h.d)
		if h.start.After(end) {
			sum += h.d
		} else if e.After(end) {
			sum += e.Sub(end)
		}
		if e.After(end) {
			end = e
		}
	}
	return sum
}

// tracedCaller is the decorator the benchmark hands to apps.NewEnvScaled and
// installs as each executor shard's Shard.Ex. It forwards every call
// unchanged and only reads the shard's virtual clock, so it never moves a
// virtual result. digest folds the call's API name and its plain results
// into the app's output digest; handles are executor-specific and are
// compared through Fetch instead.
type tracedCaller struct {
	inner  core.Caller
	clock  *vclock.Clock
	sp     *spans
	direct *core.Direct // set when inner is a Direct, for apps' host-context lookups

	digest uint64
}

func newTracedCaller(inner core.Caller, clock *vclock.Clock, sp *spans) *tracedCaller {
	c := &tracedCaller{inner: inner, clock: clock, sp: sp, digest: fnvOffset}
	c.direct, _ = inner.(*core.Direct)
	return c
}

// Call implements core.Caller.
func (c *tracedCaller) Call(api string, args ...framework.Value) ([]core.Handle, []framework.Value, error) {
	v0 := c.clock.Now()
	var h0 time.Time
	if c.sp.traced {
		h0 = time.Now()
	}
	handles, plain, err := c.inner.Call(api, args...)
	var hd time.Duration
	if c.sp.traced {
		hd = time.Since(h0)
	}
	vd := c.clock.Now() - v0

	c.digest = foldString(c.digest, api)
	for _, v := range plain {
		c.digest = foldValue(c.digest, v)
	}
	if err != nil {
		c.digest = foldString(c.digest, err.Error())
	}

	c.sp.virt.Add(vd)
	c.sp.mu.Lock()
	c.sp.calls++
	if c.sp.traced {
		c.sp.host = append(c.sp.host, hostSpan{h0, hd})
		c.sp.typeHost[c.sp.cat.TypeOf(api)] += hd
		c.sp.mix = append(c.sp.mix, framework.Call{API: api, Args: append([]framework.Value(nil), args...)})
	}
	c.sp.mu.Unlock()
	return handles, plain, err
}

// Fetch implements core.Caller and folds the fetched payload into the
// output digest.
func (c *tracedCaller) Fetch(h core.Handle) ([]byte, error) {
	b, err := c.inner.Fetch(h)
	c.digest = foldBytes(c.digest, b)
	return b, err
}

// HostContext and HostSpace are the lookups apps makes on a Direct caller
// when Env.Rt is nil (protected envs keep Env.Rt set and never ask).
func (c *tracedCaller) HostContext() *framework.Ctx { return c.direct.Ctx }

// HostSpace returns the unprotected monolith's address space.
func (c *tracedCaller) HostSpace() *mem.AddressSpace { return c.direct.Proc.Space() }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func foldUint(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime
		x >>= 8
	}
	return h
}

func foldBytes(h uint64, b []byte) uint64 {
	f := fnv.New64a()
	f.Write(b)
	return foldUint(foldUint(h, uint64(len(b))), f.Sum64())
}

func foldString(h uint64, s string) uint64 { return foldBytes(h, []byte(s)) }

func foldValue(h uint64, v framework.Value) uint64 {
	h = foldUint(h, uint64(v.Kind))
	switch v.Kind {
	case framework.ValInt:
		h = foldUint(h, uint64(v.Int))
	case framework.ValFloat:
		h = foldUint(h, math.Float64bits(v.Float))
	case framework.ValStr:
		h = foldString(h, v.Str)
	case framework.ValBool:
		if v.Bool {
			h = foldUint(h, 1)
		}
	}
	return h
}

// visitValue is the benchmark's own FNV-1a digest of (key, seq): the value
// every partition visit must return, wherever it ran.
func visitValue(key uint64, seq int) uint64 {
	return foldUint(foldUint(fnvOffset, key), uint64(seq))
}

// reset forgets every call recorded so far; set-up calls (model loads)
// are not part of a pass.
func (s *spans) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = 0
	s.virt = vclock.Latencies{}
	s.host = nil
	s.typeHost = make(map[framework.APIType]time.Duration)
	s.mix = nil
}

// tracedShards wraps every shard factory builds (replacements included) in
// the decorator, keeping Shard.Rt set.
func tracedShards(factory core.ShardFactory, sp *spans) core.ShardFactory {
	return func(id int) (*core.Shard, error) {
		sh, err := factory(id)
		if err != nil {
			return nil, err
		}
		sh.Ex = newTracedCaller(sh.Ex, sh.K.Clock, sp)
		return sh, nil
	}
}
