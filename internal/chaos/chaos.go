// Package chaos is a seeded, fully deterministic fault-injection engine for
// the simulated FreePart stack. One Engine threads into three layers:
//
//   - kernel: process crashes mid-syscall, transient EINTR/EAGAIN failures
//     on I/O calls, and device stalls (kernel.FaultInjector);
//   - ipc: message drop, duplication, payload corruption, and slow delivery
//     charged to the virtual clock (ipc.Injector);
//   - mem: spurious faults on page accesses inside agent address spaces
//     (mem.AccessHook, installed by the core runtime).
//
// Determinism: all decisions come from one rand.Rand seeded by Plan.Seed,
// consulted in the order the (single-threaded, synchronous-RPC) pipeline
// reaches each site. Non-targeted processes — anything without the
// "agent:" name prefix, i.e. the host — are skipped without consuming
// randomness, so the host is never injected and the decision stream does
// not depend on host activity. Every fired fault is appended to a log;
// equal seeds produce byte-equal logs, making every run replayable.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"freepart.dev/freepart/internal/ipc"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// Engine makes all injection decisions for one run. It implements
// kernel.FaultInjector and ipc.Injector; core installs its MemFault as a
// mem.AccessHook on agent spaces. Safe for concurrent use, though
// determinism is only guaranteed for the single-pipeline call pattern.
type Engine struct {
	plan Plan

	mu        sync.Mutex
	rng       *rand.Rand
	clock     *vclock.Clock
	syscalls  uint64 // targeted syscall consultations (drives CrashEveryN)
	transient int    // consecutive transients at the current site
	// log is the injection log: Tick is each fault's 1-based position,
	// Kind its "site/kind" — site "kernel", "ipc", "mem", "supervisor", or
	// "degrade" (the gray-failure service-time channel); kind "crash",
	// "transient", "stall", "drop", "dup", "corrupt", "fault", "degrade"
	// or, on the gray-failure site, "slow", "gray-stall", "brownout".
	log metrics.Log
}

// New builds an engine from a plan. Bind attaches the clock.
func New(plan Plan) *Engine {
	return &Engine{
		plan: plan,
		rng:  rand.New(rand.NewSource(plan.Seed)),
	}
}

// Bind attaches the virtual clock (for event timestamps); nil is allowed.
// Called by core.New.
//
// One engine serves exactly one kernel clock: event timestamps and the
// PRNG's consultation order are only meaningful against a single clock, so
// rebinding to a different clock would silently corrupt the injection log's
// ordering (the bug multi-runtime sharing used to hit). Rebinding the same
// clock is idempotent and allowed; binding a second, different clock panics.
// Multi-shard runs build one engine per shard from Plan.ForShard instead.
func (e *Engine) Bind(clock *vclock.Clock) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.clock != nil && clock != nil && e.clock != clock {
		panic("chaos: engine already bound to a different kernel clock; one engine per shard — build per-shard engines with Plan.ForShard")
	}
	e.clock = clock
}

// Plan returns the engine's configuration.
func (e *Engine) Plan() Plan { return e.plan }

// Events returns a copy of the injection log.
func (e *Engine) Events() []metrics.Event { return e.log.Events() }

// Injected returns how many faults have fired.
func (e *Engine) Injected() uint64 { return uint64(e.log.Len()) }

// Log renders the full injection log, one "#N @At site/kind detail" line
// per event.
func (e *Engine) Log() string {
	return e.log.Render(func(ev metrics.Event) string {
		return fmt.Sprintf("#%d @%v %s %s", ev.Tick, ev.At, ev.Kind, ev.Detail)
	})
}

// Summary returns per-kind fault counts as a stable one-line string.
func (e *Engine) Summary() string {
	counts := map[string]int{}
	for _, ev := range e.Events() {
		counts[ev.Kind]++
	}
	if len(counts) == 0 {
		return "no faults injected"
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, counts[k])
	}
	return strings.Join(parts, " ")
}

// Note appends an externally-observed event (e.g. the supervisor recording
// a degradation) to the log so the replay trace is complete.
func (e *Engine) Note(site, kind, detail string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.record(site, kind, detail)
}

// record appends an event under e.mu, which orders every append, so the
// position read from the log is the new event's.
func (e *Engine) record(site, kind, detail string) {
	at := vclock.Duration(0)
	if e.clock != nil {
		at = e.clock.Now()
	}
	e.log.Append(metrics.Event{Tick: e.log.Len() + 1, At: at, Kind: site + "/" + kind, Detail: detail})
}

// targets reports whether a process name is fair game.
func (e *Engine) targets(name string) bool {
	return strings.HasPrefix(name, e.plan.targetPrefix())
}

// transientEligible lists the interruptible I/O syscalls that can fail
// EINTR/EAGAIN-style.
func transientEligible(call kernel.Sysno) bool {
	switch call {
	case kernel.SysRead, kernel.SysWrite, kernel.SysSendto, kernel.SysRecvfrom, kernel.SysSelect:
		return true
	}
	return false
}

// stallEligible lists the device-facing syscalls that can answer late.
func stallEligible(call kernel.Sysno) bool {
	return call == kernel.SysIoctl || call == kernel.SysSelect
}

// OnSyscall implements kernel.FaultInjector.
func (e *Engine) OnSyscall(p *kernel.Process, call kernel.Sysno) kernel.SyscallFault {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.targets(p.Name()) {
		return kernel.SyscallFault{}
	}
	e.syscalls++
	kp := e.plan.Kernel
	if kp.TransientProb > 0 && transientEligible(call) &&
		e.transient < e.plan.maxTransient() && e.rng.Float64() < kp.TransientProb {
		e.transient++
		e.record("kernel", "transient", fmt.Sprintf("%s %s EINTR", p.Name(), call))
		return kernel.SyscallFault{Transient: true, Reason: "EINTR"}
	}
	e.transient = 0
	if kp.CrashEveryN > 0 && e.syscalls%kp.CrashEveryN == 0 {
		e.record("kernel", "crash", fmt.Sprintf("%s %s (every %d)", p.Name(), call, kp.CrashEveryN))
		return kernel.SyscallFault{Crash: true, Reason: fmt.Sprintf("chaos: scheduled crash in %s", call)}
	}
	if kp.CrashProb > 0 && e.rng.Float64() < kp.CrashProb {
		e.record("kernel", "crash", fmt.Sprintf("%s %s", p.Name(), call))
		return kernel.SyscallFault{Crash: true, Reason: fmt.Sprintf("chaos: fault in %s", call)}
	}
	if kp.StallProb > 0 && stallEligible(call) && e.rng.Float64() < kp.StallProb {
		e.record("kernel", "stall", fmt.Sprintf("%s %s +%v", p.Name(), call, kp.Stall))
		return kernel.SyscallFault{Stall: kp.Stall}
	}
	return kernel.SyscallFault{}
}

// RequestFault implements ipc.Injector for host→agent requests.
func (e *Engine) RequestFault(seq uint64, payload []byte) ipc.MessageFault {
	return e.messageFault("req", seq)
}

// ResponseFault implements ipc.Injector for agent→host responses.
func (e *Engine) ResponseFault(seq uint64, payload []byte) ipc.MessageFault {
	return e.messageFault("resp", seq)
}

func (e *Engine) messageFault(dir string, seq uint64) ipc.MessageFault {
	e.mu.Lock()
	defer e.mu.Unlock()
	ip := e.plan.IPC
	var f ipc.MessageFault
	if ip.DropProb > 0 && e.rng.Float64() < ip.DropProb {
		f.Drop = true
		e.record("ipc", "drop", fmt.Sprintf("%s seq %d", dir, seq))
		return f
	}
	if ip.CorruptProb > 0 && e.rng.Float64() < ip.CorruptProb {
		f.Corrupt = true
		e.record("ipc", "corrupt", fmt.Sprintf("%s seq %d", dir, seq))
		return f
	}
	if dir == "req" && ip.DupProb > 0 && e.rng.Float64() < ip.DupProb {
		f.Duplicate = true
		e.record("ipc", "dup", fmt.Sprintf("%s seq %d", dir, seq))
	}
	if ip.StallProb > 0 && e.rng.Float64() < ip.StallProb {
		f.Stall = ip.Stall
		e.record("ipc", "stall", fmt.Sprintf("%s seq %d +%v", dir, seq, ip.Stall))
	}
	return f
}

// ServiceDegradation returns the extra virtual time the gray-failure
// channel charges for one invocation that started at shard time start and
// ran for service. The serving executor calls it once per completed
// invocation and advances the shard clock by the return value, so a
// degraded shard is alive but slow — the failure mode the crash channels
// cannot express.
//
// Determinism: the persistent and brownout components are pure functions
// of (start, service); only an intermittent-stall draw consumes the
// engine's PRNG, and only when StallProb > 0. A zero profile returns 0
// without taking randomness or logging, so plans without a Degrade profile
// leave the decision stream — and therefore every existing replay — byte
// identical.
func (e *Engine) ServiceDegradation(start, service vclock.Duration) vclock.Duration {
	d := e.plan.Degrade
	if !d.active() || service <= 0 {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var extra vclock.Duration
	if f := d.factorAt(start); f > 1 {
		extra = vclock.Duration(float64(service) * (f - 1))
		kind := "slow"
		if d.BrownoutSlope > 0 && start > d.BrownoutAfter {
			kind = "brownout"
		}
		e.record("degrade", kind, fmt.Sprintf("service %v x%.2f +%v", service, f, extra))
	}
	if d.StallProb > 0 && e.rng.Float64() < d.StallProb {
		extra += d.Stall
		e.record("degrade", "gray-stall", fmt.Sprintf("+%v", d.Stall))
	}
	return extra
}

// MemFault decides whether a checked memory access inside procName's space
// suffers a spurious fault. Only write accesses are eligible: in this
// runtime writes into agent spaces happen exclusively inside agent-side
// execution, so the resulting crash always lands on a partition, never on
// a host-side read path.
func (e *Engine) MemFault(procName string, addr mem.Addr, kind mem.AccessKind) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	mp := e.plan.Mem
	if mp.FaultProb <= 0 || kind != mem.AccessWrite || !e.targets(procName) {
		return nil
	}
	if mp.Page != 0 && addr.PageIndex() != mp.Page {
		return nil
	}
	if e.rng.Float64() < mp.FaultProb {
		e.record("mem", "fault", fmt.Sprintf("%s %v at %#x", procName, kind, uint64(addr)))
		return fmt.Errorf("chaos: spurious %v fault at %#x in %s", kind, uint64(addr), procName)
	}
	return nil
}
