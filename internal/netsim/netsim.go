// Package netsim provides the message fabric that connects Minuet proxies to
// Sinfonia memnodes.
//
// The primary implementation, Local, delivers messages by direct function
// call with an injected one-way latency, emulating a data-center LAN while
// preserving the protocol's message structure: every RPC costs one
// round trip, and per-destination message counters let experiments reason
// about "minitransaction spread" exactly as the paper does. Local also
// supports fault injection (unreachable nodes) so that recovery paths can be
// tested.
//
// A real TCP transport with the same interface lives in internal/rpcnet.
package netsim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// NodeID identifies a message endpoint (memnode or service) in a cluster.
type NodeID int32

// Handler processes a single RPC request and returns a response. Handlers
// must be safe for concurrent use.
type Handler interface {
	HandleRPC(req any) (any, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req any) (any, error)

// HandleRPC calls f(req).
func (f HandlerFunc) HandleRPC(req any) (any, error) { return f(req) }

// Transport delivers RPCs to nodes. Implementations must be safe for
// concurrent use.
type Transport interface {
	// Call sends req to the node and waits for its response.
	Call(to NodeID, req any) (any, error)
}

// ErrUnreachable is returned when the destination node is down or unknown.
var ErrUnreachable = errors.New("netsim: node unreachable")

// Stats holds transport-level message counters.
type Stats struct {
	Calls   int64 // total RPCs issued
	Errors  int64 // RPCs that failed at the transport level
	PerNode map[NodeID]int64
}

// Local is an in-process Transport with injected latency and fault
// injection. The zero value is not usable; construct with NewLocal.
type Local struct {
	oneWay time.Duration // injected one-way latency

	mu       sync.RWMutex
	handlers map[NodeID]Handler // guarded by mu
	down     map[NodeID]bool    // guarded by mu

	// Per-node liveness bookkeeping lives outside the mutex so the RPC hot
	// path stays read-locked: inflight counts handlers currently running,
	// crashes is an epoch bumped on each SetDown(id, true).
	liveness sync.Map // NodeID -> *nodeLiveness

	calls   atomic.Int64
	errs    atomic.Int64
	perNode sync.Map // NodeID -> *atomic.Int64
}

type nodeLiveness struct {
	inflight atomic.Int64
	crashes  atomic.Uint64
}

func (l *Local) livenessOf(id NodeID) *nodeLiveness {
	v, ok := l.liveness.Load(id)
	if !ok { // first call to id: only now allocate
		v, _ = l.liveness.LoadOrStore(id, new(nodeLiveness))
	}
	return v.(*nodeLiveness)
}

// NewLocal returns a Local transport with the given one-way latency.
// A latency of zero disables sleeping entirely (useful in unit tests).
func NewLocal(oneWayLatency time.Duration) *Local {
	return &Local{
		oneWay:   oneWayLatency,
		handlers: make(map[NodeID]Handler),
		down:     make(map[NodeID]bool),
	}
}

// Bind registers (or replaces) the handler for a node. Rebinding is how a
// promoted backup takes over a failed memnode's identity.
func (l *Local) Bind(id NodeID, h Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handlers[id] = h
}

// SetDown marks a node unreachable (true) or reachable (false). Taking a
// node down also invalidates every in-flight call to it: their responses are
// dropped even if the node later comes back, because the process that was
// computing them is gone.
func (l *Local) SetDown(id NodeID, down bool) {
	l.mu.Lock()
	if down && !l.down[id] {
		l.livenessOf(id).crashes.Add(1)
	}
	l.down[id] = down
	l.mu.Unlock()
}

// Call implements Transport. The one-way latency is charged before the
// handler runs (request propagation) and again after it returns (response
// propagation), so lock-hold windows inside 2-phase commits span a realistic
// number of network delays.
//
// Fail-stop semantics: a node marked down rejects new requests, and a
// response computed by a handler that was running when the node went down is
// dropped (the caller sees ErrUnreachable) — a crashed process cannot answer.
// Without the exit-time check, a write acknowledged "from beyond the grave"
// could be counted by the client yet miss the promoted backup.
func (l *Local) Call(to NodeID, req any) (any, error) {
	l.calls.Add(1)
	c, ok := l.perNode.Load(to)
	if !ok {
		c, _ = l.perNode.LoadOrStore(to, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(1)

	// Snapshot the crash epoch BEFORE the liveness check: a crash that
	// sneaks in after the check must flip the epoch relative to this load
	// so the exit check drops the zombie response. (Loading after the
	// check would open a window where a crash between check and load goes
	// unnoticed and a handler of the dead node gets its answer through.)
	lv := l.livenessOf(to)
	epoch := lv.crashes.Load()
	lv.inflight.Add(1)
	l.mu.RLock()
	h := l.handlers[to]
	isDown := l.down[to]
	l.mu.RUnlock()
	if h == nil || isDown {
		lv.inflight.Add(-1)
		l.errs.Add(1)
		return nil, fmt.Errorf("%w: node %d", ErrUnreachable, to)
	}

	Delay(l.oneWay)
	resp, err := h.HandleRPC(req)
	Delay(l.oneWay)

	lv.inflight.Add(-1)
	if lv.crashes.Load() != epoch {
		l.errs.Add(1)
		return nil, fmt.Errorf("%w: node %d (crashed mid-call)", ErrUnreachable, to)
	}
	if err != nil {
		l.errs.Add(1)
	}
	return resp, err
}

// Quiesce blocks until no handler is running on the given node. Used by
// fail-over: after SetDown(id, true), Quiesce(id) guarantees that every
// in-flight request on the crashed node has finished (including any
// synchronous replication it performs), so a backup promoted afterwards has
// seen everything the dead primary will ever send.
func (l *Local) Quiesce(id NodeID) {
	lv := l.livenessOf(id)
	for lv.inflight.Load() != 0 {
		CurrentClock().Sleep(50 * time.Microsecond)
	}
}

// Delay blocks for d on the active Clock; it is how latency is modelled.
// Under the Wall clock it has microsecond-level accuracy: a plain
// time.Sleep rounds short sleeps up to the OS timer resolution when the
// runtime is otherwise idle (~1 ms), which would make lightly loaded
// configurations look *slower* than loaded ones and distort every latency
// comparison the benchmarks make, so Delay sleeps for the bulk of d and
// spins (yielding) for the tail. Under a Virtual clock it advances
// simulated time and returns immediately, which is what makes netsim runs
// fully deterministic.
func Delay(d time.Duration) {
	if d <= 0 {
		return
	}
	c := CurrentClock()
	if _, wall := c.(Wall); !wall {
		c.Sleep(d)
		return
	}
	t0 := c.Now()
	if d > 100*time.Microsecond {
		c.Sleep(d - 50*time.Microsecond)
	}
	for c.Now().Sub(t0) < d {
		runtime.Gosched()
	}
}

// Stats returns a snapshot of the transport counters.
func (l *Local) Stats() Stats {
	s := Stats{
		Calls:   l.calls.Load(),
		Errors:  l.errs.Load(),
		PerNode: make(map[NodeID]int64),
	}
	l.perNode.Range(func(k, v any) bool {
		s.PerNode[k.(NodeID)] = v.(*atomic.Int64).Load()
		return true
	})
	return s
}

// ResetStats zeroes all counters.
func (l *Local) ResetStats() {
	l.calls.Store(0)
	l.errs.Store(0)
	l.perNode.Range(func(k, _ any) bool {
		l.perNode.Delete(k)
		return true
	})
}
