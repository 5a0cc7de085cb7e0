package core

import (
	"sync"
	"sync/atomic"
	"time"

	"minuet/internal/netsim"
)

// borrower is Fig 7's borrowing rule, the one implementation that both the
// snapshot creation service (SCS.Create) and proxy-side borrowing
// (ProxyBorrower.Get) run: if, between a request's arrival and its turn in
// the critical section, some other request started AND finished an
// acquisition, that snapshot postdates this request's start and is returned
// without acquiring another, which preserves strict serializability.
type borrower struct {
	mu       sync.Mutex
	acquired atomic.Int64 // completed acquisitions (Fig 7's numSnapshots)
	last     Snapshot     // guarded by mu
	lastAt   time.Time    // guarded by mu
	haveLast bool         // guarded by mu

	borrowed atomic.Int64
}

// get returns a snapshot that reflects some instant after get was called.
// With borrow set, one acquired by another request during the wait is
// borrowed (Fig 7). Otherwise a snapshot acquired less than stale ago, on the
// netsim clock, is reused (§6.3's k; zero reuses nothing), and failing both,
// acquire makes a new one. borrowed reports a borrow or a reuse.
func (b *borrower) get(borrow bool, stale time.Duration, acquire func() (Snapshot, error)) (snap Snapshot, borrowed bool, err error) {
	tmp1 := b.acquired.Load()

	b.mu.Lock()
	defer b.mu.Unlock()

	clock := netsim.CurrentClock()
	if b.haveLast && (borrow && b.acquired.Load() >= tmp1+2 || stale > 0 && clock.Now().Sub(b.lastAt) < stale) {
		b.borrowed.Add(1)
		return b.last, true, nil
	}
	snap, err = acquire()
	if err != nil {
		return Snapshot{}, false, err
	}
	b.acquired.Add(1)
	b.last, b.lastAt, b.haveLast = snap, clock.Now(), true
	return snap, false, nil
}

// Proxy-side snapshot borrowing — the extension §4.3 sketches but leaves
// unimplemented: "the decision to share a snapshot among two transactions
// can be made both inside the snapshot creation service ... and also in a
// distributed fashion at the proxies. [...] For simplicity, in this paper
// we consider sharing only at the SCS."
//
// ProxyBorrower wraps any snapshot source (normally the RPC call to the
// SCS) with the same borrowing rule the service runs. Under bursts of
// snapshot requests from one proxy this eliminates most SCS round trips
// while preserving strict serializability, for exactly the reason borrowing
// inside the SCS does.
type ProxyBorrower struct {
	// Fetch acquires a snapshot from the authoritative source (the SCS).
	Fetch func() (Snapshot, error)

	b borrower
}

// NewProxyBorrower wraps fetch with proxy-side borrowing.
func NewProxyBorrower(fetch func() (Snapshot, error)) *ProxyBorrower {
	return &ProxyBorrower{Fetch: fetch}
}

// Get returns a snapshot that reflects some instant after Get was called,
// borrowing a locally acquired one when the Fig 7 condition holds.
func (p *ProxyBorrower) Get() (Snapshot, bool, error) { return p.b.get(true, 0, p.Fetch) }

// Counters reports fetched-vs-borrowed acquisition counts.
func (p *ProxyBorrower) Counters() (fetched, borrowed int64) {
	return p.b.acquired.Load(), p.b.borrowed.Load()
}
