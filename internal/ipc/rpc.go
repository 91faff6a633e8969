// Package ipc implements the inter-process communication substrate: a
// request/response RPC layer between the host and one agent process with
// exactly-once delivery.
//
// The paper's prototype moves API requests between the host and agent
// processes over shared-memory ring buffers synchronized with futexes
// (§4.3, footnote 8). Agents here are simulated, so a Conn runs the
// agent's handler inline, on the caller's goroutine, one request at a time
// — the serialization a single agent serve loop gives — and charges the
// crossing to the virtual clock instead: one IPCRoundTrip plus CopyCost
// for the bytes moved each way. The paper's RPC semantics sit on top:
// exactly-once in normal operation (§4.3) and at-least-once across agent
// restarts (§4.4.2). Fault injection drops, duplicates, corrupts or stalls
// messages at the points a real ring would, and every outcome is decided
// on the virtual clock, so no result depends on wall time.
package ipc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"freepart.dev/freepart/internal/vclock"
)

// ErrAgentCrashed is returned by Call when the serving side crashed while
// executing the request. The caller (FreePart's restart supervisor) decides
// whether to retry, giving at-least-once semantics.
var ErrAgentCrashed = errors.New("ipc: agent crashed during request")

// ErrTimeout is returned by Call when fault injection dropped a message and
// the caller waited out the virtual IPCTimeout. The request may or may not
// have executed; a Retry with the same sequence number is safe because the
// server-side dedup cache absorbs duplicates.
var ErrTimeout = errors.New("ipc: call timed out")

// ErrCorrupt is returned by Call when a message failed its checksum — the
// payload was damaged in transit. The request was not executed (corrupt
// requests are rejected before dispatch), so a Retry is safe.
var ErrCorrupt = errors.New("ipc: message corrupted in transit")

// ErrClosed is returned by calls on a closed connection.
var ErrClosed = errors.New("ipc: connection closed")

// Handler executes one request and returns the response payload.
// Returning an error wrapped around ErrAgentCrashed signals that the agent
// process died mid-request.
type Handler func(kind uint32, payload []byte) ([]byte, error)

// MessageFault describes what fault injection does to one message in
// flight. The zero value means "deliver normally".
type MessageFault struct {
	Drop      bool            // message lost; the caller times out
	Duplicate bool            // message delivered twice (dedup must absorb it)
	Corrupt   bool            // payload damaged; checksum catches it
	Stall     vclock.Duration // slow delivery, charged to the virtual clock
}

// Injector decides the fate of messages on a Conn. Implemented by the chaos
// engine; consulted once per request and once per response.
type Injector interface {
	RequestFault(seq uint64, payload []byte) MessageFault
	ResponseFault(seq uint64, payload []byte) MessageFault
}

// CallStats counts RPC activity on a Conn.
type CallStats struct {
	Calls         uint64 // round trips issued
	Retries       uint64 // re-sent requests after a crash
	Dedups        uint64 // duplicate requests absorbed by the server cache
	BytesRequest  uint64
	BytesResponse uint64
}

// Conn is the RPC connection between the host process and one agent
// process. Calls from any number of goroutines are safe; the agent serves
// them one at a time, in the order they take the connection.
//
// Exactly-once: every request carries a sequence number; the server caches
// the response to each sequence it has completed, so a retried request
// (sent because the client saw a crash after the agent may or may not have
// finished) is answered from the cache instead of re-executed. Stateless
// re-execution after a genuine crash is the documented at-least-once path.
type Conn struct {
	clock *vclock.Clock
	cost  vclock.CostModel
	h     Handler

	seq    atomic.Uint64
	closed atomic.Bool

	// mu is held for a whole call, so the agent serves one request at a
	// time.
	mu      sync.Mutex
	stats   CallStats
	done    map[uint64][]byte // server-side dedup cache
	doneCap int
	order   []uint64 // insertion order for cache eviction
	inject  Injector
}

// NewConn creates a connection served by h. h runs under the connection's
// lock, so it must not call back into the same Conn. clock may be nil to
// skip virtual-time charging (unit tests).
func NewConn(clock *vclock.Clock, cost vclock.CostModel, h Handler) *Conn {
	return &Conn{
		clock:   clock,
		cost:    cost,
		h:       h,
		done:    make(map[uint64][]byte),
		doneCap: 1024,
	}
}

// SetInjector installs (or clears, with nil) the fault injector consulted
// for every message on this connection.
func (c *Conn) SetInjector(i Injector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inject = i
}

// respKindOK, respKindCrash and respKindCorrupt tag server responses.
const (
	respKindOK uint32 = iota
	respKindCrash
	respKindCorrupt
)

// sum64 is the payload checksum a message carries: 64-bit FNV-1a, computed
// inline so a message costs no hash.Hash64 allocation.
func sum64(p []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range p {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// serve is the agent side of one delivered request: verify, execute (with
// dedup), respond. sum is the checksum of the payload as the sender meant
// it. Called with c.mu held.
func (c *Conn) serve(seq uint64, kind uint32, payload []byte, sum uint64) (uint32, []byte) {
	if sum64(payload) != sum {
		// Damaged in transit: reject before dispatch so a Retry with the
		// same sequence can still execute exactly once.
		return respKindCorrupt, []byte("request checksum mismatch")
	}
	if cached, dup := c.done[seq]; dup {
		c.stats.Dedups++
		return respKindOK, cached
	}
	out, err := c.h(kind, payload)
	if errors.Is(err, ErrAgentCrashed) {
		return respKindCrash, []byte(err.Error())
	}
	if err != nil {
		// Application-level errors travel as payloads; the RPC layer
		// only distinguishes success from crash.
		out = append([]byte("!"), []byte(err.Error())...)
	} else {
		out = append([]byte("="), out...)
	}
	c.remember(seq, out)
	return respKindOK, out
}

// remember stores a completed response for dedup, evicting oldest entries.
// Called with c.mu held.
func (c *Conn) remember(seq uint64, out []byte) {
	c.done[seq] = out
	c.order = append(c.order, seq)
	for len(c.order) > c.doneCap {
		delete(c.done, c.order[0])
		c.order = c.order[1:]
	}
}

// Call issues one request and returns its response, charging the IPC
// round-trip plus per-byte copy costs to the virtual clock. Application
// errors returned by the handler come back as errors; a crash comes back
// as ErrAgentCrashed.
func (c *Conn) Call(kind uint32, payload []byte) ([]byte, error) {
	return c.callSeq(c.NextSeq(), kind, payload, false)
}

// NextSeq reserves and returns a fresh sequence number, for callers that
// need to know the sequence before issuing the request (CallSeq + Retry).
func (c *Conn) NextSeq() uint64 { return c.seq.Add(1) }

// CallSeq issues a request under a sequence number previously reserved with
// NextSeq, so the caller can Retry the identical sequence after a failure.
func (c *Conn) CallSeq(seq uint64, kind uint32, payload []byte) ([]byte, error) {
	return c.callSeq(seq, kind, payload, false)
}

// Retry re-issues a call with its original sequence number after a crash;
// if the agent had already completed it, the dedup cache answers.
func (c *Conn) Retry(seq uint64, kind uint32, payload []byte) ([]byte, error) {
	return c.callSeq(seq, kind, payload, true)
}

// LastSeq returns the most recently assigned sequence number.
func (c *Conn) LastSeq() uint64 { return c.seq.Load() }

// advance charges d to the virtual clock, if there is one.
func (c *Conn) advance(d vclock.Duration) {
	if c.clock != nil && d > 0 {
		c.clock.Advance(d)
	}
}

// fault draws the injector's decision for one message and charges its
// stall, plus the IPCTimeout the caller waits out when the message is lost.
func (c *Conn) fault(draw func(uint64, []byte) MessageFault, seq uint64, payload []byte) MessageFault {
	f := draw(seq, payload)
	c.advance(f.Stall)
	if f.Drop {
		c.advance(c.cost.IPCTimeout)
	}
	return f
}

func (c *Conn) callSeq(seq uint64, kind uint32, payload []byte, retry bool) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}

	send, dup := payload, false
	if c.inject != nil {
		f := c.fault(c.inject.RequestFault, seq, payload)
		if f.Drop {
			return nil, fmt.Errorf("%w: request seq %d lost", ErrTimeout, seq)
		}
		if f.Corrupt {
			send = corrupted(payload)
		}
		dup = f.Duplicate
	}
	// The checksum covers the payload as intended, so corruption is
	// detectable.
	sum := sum64(payload)
	respKind, resp := c.serve(seq, kind, send, sum)
	if dup {
		// The second copy reaches the agent right behind the first; its
		// answer is never read.
		c.serve(seq, kind, send, sum)
	}
	if respKind == respKindCrash {
		// A crash notification is control-plane bookkeeping, not a data
		// message: it consumes no injector decision and charges nothing.
		return nil, fmt.Errorf("%w: %s", ErrAgentCrashed, resp)
	}
	respSum := sum64(resp)
	if c.inject != nil {
		f := c.fault(c.inject.ResponseFault, seq, resp)
		if f.Drop {
			return nil, fmt.Errorf("%w: response seq %d lost", ErrTimeout, seq)
		}
		if f.Corrupt {
			resp = corrupted(resp)
		}
	}
	c.stats.Calls++
	if retry {
		c.stats.Retries++
	}
	c.stats.BytesRequest += uint64(len(payload))
	c.stats.BytesResponse += uint64(len(resp))
	c.advance(c.cost.IPCRoundTrip)
	c.advance(c.cost.CopyCost(len(payload) + len(resp)))
	if respKind == respKindCorrupt || sum64(resp) != respSum {
		return nil, fmt.Errorf("%w: seq %d", ErrCorrupt, seq)
	}
	if len(resp) == 0 {
		return nil, errors.New("ipc: malformed empty response")
	}
	switch resp[0] {
	case '=':
		return resp[1:], nil
	case '!':
		return nil, errors.New(string(resp[1:]))
	default:
		return nil, fmt.Errorf("ipc: malformed response tag %q", resp[0])
	}
}

// corrupted returns a copy of p with one byte flipped (or a poison byte for
// empty payloads), simulating in-transit damage without touching the
// caller's buffer.
func corrupted(p []byte) []byte {
	if len(p) == 0 {
		return []byte{0xFF}
	}
	out := make([]byte, len(p))
	copy(out, p)
	out[len(out)/2] ^= 0xFF
	return out
}

// Stats returns a snapshot of the RPC counters.
func (c *Conn) Stats() CallStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close shuts the connection; later calls fail with ErrClosed.
func (c *Conn) Close() { c.closed.Store(true) }
