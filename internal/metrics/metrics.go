// Package metrics collects what the evaluation tables are built from:
// counters for IPC round trips, bytes moved between processes, lazy vs
// eager data copies (Table 12), permission flips, restarts, and syscall
// denials — and the replayable event log (Event, Log) in which the serving
// executor, the autoscaler, the defense controller, and the chaos engine
// record their decisions and injected faults. A counter that would mirror
// an event kind is not kept: it is read from the log's per-kind count.
package metrics

import (
	"sync"

	"freepart.dev/freepart/internal/vclock"
)

// Counters accumulates runtime events. Safe for concurrent use.
type Counters struct {
	mu sync.Mutex
	s  Snapshot
	// log holds the serving executor's shard events; Snapshot derives the
	// event-mirroring fields from its counts.
	log Log
}

// TenantCounts is one tenant's share of the serving outcome: invocations
// completed cleanly versus shed at admission (queue-bound rejections,
// deadline drops, and quarantine refusals).
type TenantCounts struct {
	Served uint64
	Shed   uint64
}

// Snapshot is an immutable copy of the counters. The fields that mirror an
// executor event kind (listed in Counters.Snapshot) are not stored twice:
// Snapshot reads them from the event log's per-kind counts, so a snapshot
// never counts an event the log lacks.
type Snapshot struct {
	IPCCalls    uint64
	BytesMoved  uint64
	LazyCopies  uint64
	EagerCopies uint64
	PermFlips   uint64
	PagesFlip   uint64
	Restarts    uint64
	Denials     uint64
	APICalls    uint64
	Checkpoints uint64

	// Retries counts API calls re-issued by the supervisor after a crash,
	// timeout, or corrupted message.
	Retries uint64
	// Degraded counts partitions the circuit breaker demoted to in-host
	// direct execution — each one is a recorded security downgrade.
	Degraded uint64
	// DegradedCalls counts API calls executed in-host on behalf of a
	// degraded partition (no isolation for these).
	DegradedCalls uint64

	// ShardDrains counts serving-layer shards drained by the executor's
	// health policy (or an explicit kill) and replaced by a fresh shard.
	ShardDrains uint64
	// Migrations counts sessions moved off a drained shard with their
	// stateful-API checkpoints materialized on the destination.
	Migrations uint64
	// FailedMigrations counts sessions (or bound state objects) that could
	// not be moved — no checkpoint to restore from, or the restore failed.
	FailedMigrations uint64

	// ScaleUps counts shards the control plane added to the serving pool.
	ScaleUps uint64
	// ScaleDowns counts shards the control plane retired from the pool
	// (shrink = drain + migrate, without a corpse).
	ScaleDowns uint64
	// Rebalances counts sessions proactively migrated off a hot shard by
	// the control plane before any failure.
	Rebalances uint64
	// BatchedAdmissions counts coalesced admission batches; BatchedRequests
	// counts the invocations they carried. Requests − Batches is the number
	// of worker-pool acquisitions the batching layer amortized away.
	BatchedAdmissions uint64
	BatchedRequests   uint64

	// Rejected counts arrivals refused at the admission-queue bound (the
	// virtual 503s); DeadlineShed counts requests dropped at dequeue after
	// outliving their admission deadline. Shed work runs nothing — no
	// checkpoint writes, no chaos draws, no clock advance.
	Rejected     uint64
	DeadlineShed uint64
	// Tenants breaks served/shed down per tenant id.
	Tenants map[int]TenantCounts

	// DomainSwitches counts protection-key domain entries/exits (one WRPKRU
	// per switch; a domain-tier call charges two).
	DomainSwitches uint64
	// DomainCopies/DomainCopyBytes count buffers physically moved between
	// protection domains inside one address space (the cheapest copy tier).
	DomainCopies    uint64
	DomainCopyBytes uint64
	// DomainGrants/DomainGrantBytes count cross-domain read-only page
	// grants: object payloads a domain consumed without any copy charge
	// (the MPK analogue of lazy data copy).
	DomainGrants     uint64
	DomainGrantBytes uint64

	// WatchdogTrips counts DoS resource-watchdog reports: domain- or
	// host-tier invocations that killed the host process or overran their
	// virtual-time budget. Detection, not containment — the invocation
	// already ran; the defense controller reacts to the report.
	WatchdogTrips uint64
	// Rebinds counts shards drained and respawned purely to move them onto
	// a changed isolation policy (defense escalation or annealing) — a
	// subset of ShardDrains.
	Rebinds uint64
	// Quarantined counts admissions refused because the requesting tenant
	// was quarantined by the defense controller.
	Quarantined uint64

	// GrayDrains counts shards drained by the latency-based suspicion
	// scorer — shards that never tripped a crash window but whose service
	// times marked them gray. A subset of ShardDrains.
	GrayDrains uint64
	// Hedges counts secondary requests launched because the primary's
	// virtual completion overran the hedge delay; HedgeWins counts hedges
	// whose completion beat the primary's, HedgeCancels counts hedges the
	// primary beat (the loser is cancelled but its work stays charged).
	Hedges       uint64
	HedgeWins    uint64
	HedgeCancels uint64
	// HedgeWork is the total virtual service time spent on hedge
	// executions — the extra-work numerator of the gray campaign's
	// bounded-overhead claim (divide by Executor.TotalWork).
	HedgeWork vclock.Duration

	// WarmHits counts session visits landing on a shard whose simulated
	// page cache still held the session's working set; ColdMisses counts
	// visits that had to re-fault it in (and paid ColdMissCost).
	// PartitionSplits counts hot-range splits performed by the
	// partition-rebalance drill.
	WarmHits        uint64
	ColdMisses      uint64
	PartitionSplits uint64
}

// New creates zeroed counters.
func New() *Counters { return &Counters{} }

// Log returns the counters' event log. The serving executor records its
// shard events there.
func (c *Counters) Log() *Log { return &c.log }

// AddIPC records one RPC round trip moving n payload bytes.
func (c *Counters) AddIPC(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.IPCCalls++
	if n > 0 {
		c.s.BytesMoved += uint64(n)
	}
}

// AddLazyCopy records a direct agent-to-agent object copy of n bytes.
func (c *Counters) AddLazyCopy(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.LazyCopies++
	if n > 0 {
		c.s.BytesMoved += uint64(n)
	}
}

// AddEagerCopy records an object payload shipped through the host process.
func (c *Counters) AddEagerCopy(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.EagerCopies++
	if n > 0 {
		c.s.BytesMoved += uint64(n)
	}
}

// AddPermFlip records one mprotect covering pages pages.
func (c *Counters) AddPermFlip(pages int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.PermFlips++
	if pages > 0 {
		c.s.PagesFlip += uint64(pages)
	}
}

// AddRestart records an agent restart.
func (c *Counters) AddRestart() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Restarts++
}

// AddDenial records a syscall blocked by a filter.
func (c *Counters) AddDenial() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Denials++
}

// AddAPICall records one framework API dispatch.
func (c *Counters) AddAPICall() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.APICalls++
}

// AddCheckpoint records one stateful-state checkpoint write.
func (c *Counters) AddCheckpoint() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Checkpoints++
}

// AddRetry records one supervised re-issue of an API call.
func (c *Counters) AddRetry() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Retries++
}

// AddDegraded records a partition demoted to in-host direct execution.
func (c *Counters) AddDegraded() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Degraded++
}

// AddDegradedCall records an API call served in-host for a degraded
// partition.
func (c *Counters) AddDegradedCall() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.DegradedCalls++
}

// AddBatchedAdmission records one coalesced admission batch of n requests.
func (c *Counters) AddBatchedAdmission(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.BatchedAdmissions++
	if n > 0 {
		c.s.BatchedRequests += uint64(n)
	}
}

// tenantLocked returns tenant t's cell, allocating the map lazily so
// single-tenant runs never carry it. Caller holds c.mu.
func (c *Counters) tenantLocked(t int) TenantCounts {
	if c.s.Tenants == nil {
		c.s.Tenants = make(map[int]TenantCounts)
	}
	return c.s.Tenants[t]
}

// AddDomainSwitch records one protection-key domain entry or exit.
func (c *Counters) AddDomainSwitch() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.DomainSwitches++
}

// AddDomainCopy records n bytes physically copied between protection
// domains inside one address space.
func (c *Counters) AddDomainCopy(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.DomainCopies++
	if n > 0 {
		c.s.DomainCopyBytes += uint64(n)
		c.s.BytesMoved += uint64(n)
	}
}

// AddDomainGrant records n bytes consumed across domains via a read-only
// page grant (no copy charged).
func (c *Counters) AddDomainGrant(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.DomainGrants++
	if n > 0 {
		c.s.DomainGrantBytes += uint64(n)
	}
}

// AddWatchdogTrip records one DoS resource-watchdog report.
func (c *Counters) AddWatchdogTrip() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.WatchdogTrips++
}

// AddWarmHit records one session visit placed on a shard whose simulated
// page cache already held the session's working set.
func (c *Counters) AddWarmHit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.WarmHits++
}

// AddColdMiss records one session visit that found a cold cache and paid
// the re-fault cost.
func (c *Counters) AddColdMiss() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.ColdMisses++
}

// AddPartitionSplit records one hot-range split performed by the
// partition-rebalance drill.
func (c *Counters) AddPartitionSplit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.PartitionSplits++
}

// AddHedgeWork records d of virtual service time spent on a hedge
// execution (charged whether or not the hedge won).
func (c *Counters) AddHedgeWork(d vclock.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.s.HedgeWork += d
	}
}

// AddTenantServed records one cleanly completed invocation for tenant t.
func (c *Counters) AddTenantServed(t int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tc := c.tenantLocked(t)
	tc.Served++
	c.s.Tenants[t] = tc
}

// AddTenantShed records one invocation shed for tenant t: a queue-bound
// rejection, a deadline drop, or a quarantine refusal.
func (c *Counters) AddTenantShed(t int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tc := c.tenantLocked(t)
	tc.Shed++
	c.s.Tenants[t] = tc
}

// Snapshot returns a copy of the counters. The event-mirroring fields are
// read from the log's per-kind counts with the log locked, so they agree
// with the log by construction.
func (c *Counters) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.s
	if len(c.s.Tenants) > 0 {
		s.Tenants = make(map[int]TenantCounts, len(c.s.Tenants))
		for t, tc := range c.s.Tenants {
			s.Tenants[t] = tc
		}
	}
	c.log.mu.Lock()
	defer c.log.mu.Unlock()
	n := c.log.counts
	s.ShardDrains, s.Migrations, s.FailedMigrations = n["drain"], n["migrate"], n["migrate-failed"]
	s.ScaleUps, s.ScaleDowns, s.Rebalances, s.Rebinds = n["grow"], n["shrink"], n["rebalance"], n["rebind"]
	s.Hedges, s.HedgeWins, s.HedgeCancels = n["hedge"], n["hedge-win"], n["hedge-cancel"]
	s.Rejected, s.DeadlineShed, s.Quarantined = n["reject"], n["shed"], n["quarantine"]
	s.GrayDrains = n["gray-drain"]
	return s
}

// LazyFraction returns the share of copy operations that were lazy
// (Table 12's 95.08%).
func (s Snapshot) LazyFraction() float64 {
	total := s.LazyCopies + s.EagerCopies
	if total == 0 {
		return 0
	}
	return float64(s.LazyCopies) / float64(total)
}

// Overhead computes the relative slowdown of a protected run against an
// unprotected baseline in virtual time, as a percentage (Fig. 13's 3.68%).
func Overhead(base, protected vclock.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (float64(protected)/float64(base) - 1)
}
