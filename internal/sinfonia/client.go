package sinfonia

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"minuet/internal/netsim"
)

// Client is the Sinfonia application library linked into each proxy. It
// coordinates minitransactions: grouping items by memnode, running the
// two-phase protocol (collapsed to one phase for a single memnode),
// retrying busy-lock aborts transparently, and surfacing comparison
// failures to the application.
type Client struct {
	t     netsim.Transport
	nodes []NodeID

	txid atomic.Uint64
}

var clientSeq atomic.Uint64

// NewClient returns a Client over transport t. nodes lists every memnode in
// the cluster (needed by callers that write replicated objects to all
// memnodes).
func NewClient(t netsim.Transport, nodes []NodeID) *Client {
	c := &Client{t: t, nodes: append([]NodeID(nil), nodes...)}
	// Partition the txid space between clients so ids never collide.
	c.txid.Store(clientSeq.Add(1) << 40)
	return c
}

// Nodes returns the memnode ids this client knows about.
func (c *Client) Nodes() []NodeID { return c.nodes }

// Transport returns the underlying transport.
func (c *Client) Transport() netsim.Transport { return c.t }

// nextTxid returns a fresh minitransaction id.
func (c *Client) nextTxid() uint64 { return c.txid.Add(1) }

// perNode is a minitransaction's slice of items for one memnode, remembering
// the positions of items in the original request so results and failure
// indices can be mapped back. When the whole minitransaction addresses one
// memnode — every get, and most commits — the group is the request itself
// (whole): its slices are shared, not copied, and positions need no mapping.
type perNode struct {
	node    NodeID
	whole   bool
	cmp     []CompareItem
	cmpIdx  []int
	rd      []ReadItem
	rdIdx   []int
	wr      []WriteItem
	prepped bool
}

// singleNode reports the one memnode m addresses, if there is exactly one.
func singleNode(m *Minitx) (NodeID, bool) {
	var node NodeID
	switch {
	case len(m.Compares) > 0:
		node = m.Compares[0].Node
	case len(m.Reads) > 0:
		node = m.Reads[0].Node
	case len(m.Writes) > 0:
		node = m.Writes[0].Node
	default:
		return 0, false
	}
	for i := range m.Compares {
		if m.Compares[i].Node != node {
			return 0, false
		}
	}
	for i := range m.Reads {
		if m.Reads[i].Node != node {
			return 0, false
		}
	}
	for i := range m.Writes {
		if m.Writes[i].Node != node {
			return 0, false
		}
	}
	return node, true
}

func groupByNode(m *Minitx) []*perNode {
	if n, ok := singleNode(m); ok {
		return []*perNode{{node: n, whole: true, cmp: m.Compares, rd: m.Reads, wr: m.Writes}}
	}
	// A minitransaction touches a handful of memnodes: find each item's
	// group by scanning the groups so far.
	var order []*perNode
	get := func(n NodeID) *perNode {
		for _, g := range order {
			if g.node == n {
				return g
			}
		}
		g := &perNode{node: n}
		order = append(order, g)
		return g
	}
	for i, it := range m.Compares {
		g := get(it.Node)
		g.cmp = append(g.cmp, it)
		g.cmpIdx = append(g.cmpIdx, i)
	}
	for i, it := range m.Reads {
		g := get(it.Node)
		g.rd = append(g.rd, it)
		g.rdIdx = append(g.rdIdx, i)
	}
	for _, it := range m.Writes {
		g := get(it.Node)
		g.wr = append(g.wr, it)
	}
	return order
}

// RetryBudget is the time, on the netsim clock, that any one contention
// retry loop may spend waiting before it gives up and reports why: busy-lock
// retries here, optimistic transaction retries in dyntx.Run, and the
// allocator's compare-and-swap loops. Every such loop waits on a Backoff. It
// is long enough that a heavily contended batch still completes: in the
// three-process `minuet-load -cluster 3 -batch 64` smoke on a 2-CPU host,
// retried batches that succeed take up to 3.3 s.
const RetryBudget = 10 * time.Second

// Backoff paces one contention retry loop: jittered exponential waits from
// 20 µs, doubling to a 1 ms cap, for at most RetryBudget, all on the netsim
// clock. Get one from Client.Backoff. The budget runs from the first Wait,
// that is from the first lost attempt, so a loop that succeeds at once never
// reads the clock.
type Backoff struct {
	c     *Client
	start time.Time
	next  time.Duration
	rng   rand.PCG // jitter, seeded from c's txid counter at the first Wait
}

// Backoff returns a Backoff for one retry loop of c's.
func (c *Client) Backoff() Backoff { return Backoff{c: c} }

// Wait sleeps before the next retry and reports true, or reports false
// without sleeping once RetryBudget has passed since the first Wait. The
// jitter keeps colliding proxies from re-executing in lockstep; it comes
// from a generator of the Backoff's own, so clients seeded alike replay the
// same waits.
func (b *Backoff) Wait() bool {
	clock := netsim.CurrentClock()
	if b.next == 0 {
		b.start, b.next = clock.Now(), 20*time.Microsecond
		b.rng.Seed(b.c.nextTxid(), 0)
	} else if clock.Now().Sub(b.start) >= RetryBudget {
		return false
	}
	clock.Sleep(time.Duration(b.rng.Uint64()%uint64(b.next)) + b.next/2)
	b.next = min(2*b.next, time.Millisecond)
	return true
}

// Elapsed returns the time since the first Wait.
func (b *Backoff) Elapsed() time.Duration {
	if b.next == 0 {
		return 0
	}
	return netsim.CurrentClock().Now().Sub(b.start)
}

// Exec executes a minitransaction and returns its reads. Busy-lock aborts
// are retried transparently on a Backoff; ErrTooBusy reports its budget
// spent. A comparison failure aborts the minitransaction and returns
// *CompareFailedError.
func (c *Client) Exec(m *Minitx) (*Result, error) {
	groups := groupByNode(m)
	if len(groups) == 0 {
		return &Result{Reads: make([]ReadResult, 0)}, nil
	}
	b := c.Backoff()
	for {
		res, busy, err := c.execOnce(m, groups)
		if err != nil || !busy {
			return res, err
		}
		if !b.Wait() {
			return nil, ErrTooBusy
		}
	}
}

// execOnce runs a single attempt. It returns busy=true when the attempt
// aborted due to a busy lock and should be retried.
func (c *Client) execOnce(m *Minitx, groups []*perNode) (res *Result, busy bool, err error) {
	txid := c.nextTxid()

	if len(groups) == 1 {
		// One memnode: the two-phase protocol collapses to a single
		// ExecCommit round trip.
		g := groups[0]
		resp, err := c.call(g.node, &ExecCommitReq{
			Txid: txid, Compares: g.cmp, Reads: g.rd, Writes: g.wr,
			Blocking: m.Blocking,
		})
		if err != nil {
			return nil, false, err
		}
		return c.finish(m, groups, []*ExecResp{resp})
	}

	// Phase one: prepare at every participant in parallel. Each prepare
	// carries the full participant list for coordinator recovery.
	participants := make([]NodeID, len(groups))
	for i, g := range groups {
		participants[i] = g.node
	}
	resps := make([]*ExecResp, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g *perNode) {
			defer wg.Done()
			resps[i], errs[i] = c.callPrepare(g, txid, m.Blocking, participants)
		}(i, g)
	}
	wg.Wait()

	allOK := true
	for i, g := range groups {
		g.prepped = errs[i] == nil && resps[i].Vote == voteOK
		if !g.prepped {
			allOK = false
		}
	}

	if !allOK {
		// Phase two: abort everything that prepared.
		c.finishPhase(groups, txid, false)
		for i := range groups {
			if errs[i] != nil {
				return nil, false, errs[i]
			}
		}
		return c.finish(m, groups, resps)
	}

	// Phase two: commit everywhere.
	if err := c.finishPhase(groups, txid, true); err != nil {
		return nil, false, err
	}
	return c.finish(m, groups, resps)
}

func (c *Client) callPrepare(g *perNode, txid uint64, blocking bool, participants []NodeID) (*ExecResp, error) {
	return c.call(g.node, &PrepareReq{
		Txid: txid, Compares: g.cmp, Reads: g.rd, Writes: g.wr,
		Blocking: blocking, Participants: participants,
	})
}

// finishPhase sends commit (ok=true) or abort to all prepared participants
// in parallel. Commit failures are retried a few times: a memnode that
// crashed between phases is expected to be re-bound to its promoted backup.
func (c *Client) finishPhase(groups []*perNode, txid uint64, ok bool) error {
	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	for i, g := range groups {
		if !g.prepped {
			continue
		}
		wg.Add(1)
		go func(i int, g *perNode) {
			defer wg.Done()
			var req any
			if ok {
				req = &CommitReq{Txid: txid}
			} else {
				req = &AbortReq{Txid: txid}
			}
			var err error
			for try := 0; try < 3; try++ {
				if _, err = c.t.Call(g.node, req); err == nil {
					return
				}
				netsim.Delay(time.Duration(try+1) * time.Millisecond)
			}
			errs[i] = err
		}(i, g)
	}
	wg.Wait()
	if ok {
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("sinfonia: commit phase failed: %w", err)
			}
		}
	}
	return nil
}

// finish converts per-node responses into the caller's Result, mapping
// failed-comparison indices and read results back to request order.
func (c *Client) finish(m *Minitx, groups []*perNode, resps []*ExecResp) (*Result, bool, error) {
	if groups[0].whole {
		// One memnode ran the request as it stands: its answer is the result.
		switch r := resps[0]; {
		case r.Vote == voteBusy:
			return nil, true, nil
		case r.Vote == voteCompareFail:
			return nil, false, &CompareFailedError{Failed: r.Failed}
		case len(r.Reads) == len(m.Reads):
			return &Result{Reads: r.Reads}, false, nil
		}
	}
	var failed []int
	for i, g := range groups {
		r := resps[i]
		if r == nil {
			continue
		}
		switch r.Vote {
		case voteBusy:
			return nil, true, nil
		case voteCompareFail:
			for _, li := range r.Failed {
				failed = append(failed, g.cmpIdx[li])
			}
		}
	}
	if len(failed) > 0 {
		return nil, false, &CompareFailedError{Failed: failed}
	}
	res := &Result{Reads: make([]ReadResult, len(m.Reads))}
	for i, g := range groups {
		r := resps[i]
		for li, gi := range g.rdIdx {
			if li < len(r.Reads) {
				res.Reads[gi] = r.Reads[li]
			}
		}
	}
	return res, false, nil
}

func (c *Client) call(node NodeID, req any) (*ExecResp, error) {
	resp, err := c.t.Call(node, req)
	if err != nil {
		return nil, err
	}
	er, ok := resp.(*ExecResp)
	if !ok {
		return nil, fmt.Errorf("sinfonia: unexpected response %T from node %d", resp, node)
	}
	return er, nil
}

// ExecIndependent executes several minitransactions concurrently, one call
// slot per minitransaction, and returns their results in order. The
// minitransactions are independent — there is NO atomicity across them; each
// commits (or fails) on its own. Callers use it to pipeline single-memnode
// fetches across the cluster: a batched read that would otherwise be N
// sequential round trips completes in roughly one.
func (c *Client) ExecIndependent(ms []*Minitx) ([]*Result, error) {
	if len(ms) == 0 {
		return nil, nil
	}
	if len(ms) == 1 {
		res, err := c.Exec(ms[0])
		if err != nil {
			return nil, err
		}
		return []*Result{res}, nil
	}
	results := make([]*Result, len(ms))
	errs := make([]error, len(ms))
	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func(i int, m *Minitx) {
			defer wg.Done()
			results[i], errs[i] = c.Exec(m)
		}(i, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Read is a convenience wrapper: a minitransaction containing a single read.
func (c *Client) Read(p Ptr) (ReadResult, error) {
	res, err := c.Exec(&Minitx{Reads: []ReadItem{{Node: p.Node, Addr: p.Addr}}})
	if err != nil {
		return ReadResult{}, err
	}
	return res.Reads[0], nil
}

// Write is a convenience wrapper: a minitransaction containing a single
// unconditional write.
func (c *Client) Write(p Ptr, data []byte) error {
	_, err := c.Exec(&Minitx{Writes: []WriteItem{{Node: p.Node, Addr: p.Addr, Data: data}}})
	return err
}

// Scan enumerates items on one memnode; see ScanReq.
func (c *Client) Scan(node NodeID, min, max Addr, prefixLen int) ([]ItemInfo, error) {
	resp, err := c.t.Call(node, &ScanReq{MinAddr: min, MaxAddr: max, PrefixLen: prefixLen})
	if err != nil {
		return nil, err
	}
	sr, ok := resp.(*ScanResp)
	if !ok {
		return nil, fmt.Errorf("sinfonia: unexpected response %T from node %d", resp, node)
	}
	return sr.Items, nil
}

// Stats fetches a memnode's counters.
func (c *Client) Stats(node NodeID) (*StatsResp, error) {
	resp, err := c.t.Call(node, &StatsReq{})
	if err != nil {
		return nil, err
	}
	sr, ok := resp.(*StatsResp)
	if !ok {
		return nil, fmt.Errorf("sinfonia: unexpected response %T from node %d", resp, node)
	}
	return sr, nil
}
