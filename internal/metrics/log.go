package metrics

import (
	"strconv"
	"strings"
	"sync"

	"freepart.dev/freepart/internal/vclock"
)

// Event is one entry in a replayable log: a serving executor's shard event,
// a control plane's reconcile decision, or a fault the chaos engine fired.
// For a fixed seed every log (per shard, for the executor) is byte-equal
// across runs.
type Event struct {
	// At is the virtual time of the event.
	At vclock.Duration
	// Shard and Gen identify the shard incarnation an executor event
	// concerns.
	Shard int
	Gen   int
	// Tick is the reconcile round a control-plane decision was made in
	// (from 1), or a fired fault's 1-based position in its engine's log.
	Tick int
	// Kind names the event: an executor's "kill", "drain", "migrate",
	// "grow", "reject", "hedge", ...; a controller's "grow", "escalate",
	// "quarantine", ...; or an injected fault as "site/kind"
	// ("kernel/crash", "ipc/drop", "supervisor/degrade", ...).
	Kind string
	// Detail carries the reason or subject (session, tenant, error).
	Detail string
}

// String renders the event as one log line: "tick T @At kind detail" for a
// control-plane decision (Tick set), "@At shard S/gen G kind detail" for an
// executor shard event.
func (ev Event) String() string {
	if ev.Tick > 0 {
		return "tick " + strconv.Itoa(ev.Tick) + " @" + ev.At.String() + " " + ev.Kind + " " + ev.Detail
	}
	return "@" + ev.At.String() + " shard " + strconv.Itoa(ev.Shard) + "/gen " + strconv.Itoa(ev.Gen) +
		" " + ev.Kind + " " + ev.Detail
}

// Log is an append-only event log that keeps a count per kind, so a
// counter that would mirror an event kind is read from Count instead of
// being bumped beside the append. Safe for concurrent use; the zero value
// is an empty log.
type Log struct {
	mu     sync.Mutex
	events []Event
	counts map[string]uint64
}

// Append adds one event.
func (l *Log) Append(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.counts == nil {
		l.counts = make(map[string]uint64)
	}
	l.events = append(l.events, ev)
	l.counts[ev.Kind]++
}

// Events returns a copy of the log.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Len returns how many events the log holds.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Count returns how many events of the given kind the log holds.
func (l *Log) Count(kind string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[kind]
}

// Render renders the log one event per line, each formatted by line —
// Event.String for the control-plane logs — and newline-terminated.
func (l *Log) Render(line func(Event) string) string {
	var b strings.Builder
	for _, ev := range l.Events() {
		b.WriteString(line(ev))
		b.WriteByte('\n')
	}
	return b.String()
}
