package rpcnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"minuet/internal/netsim"
	"minuet/internal/wire"
)

// Client tunable defaults.
const (
	defaultConnsPerPeer = 2
	defaultWindow       = 128
	defaultQueueWait    = 10 * time.Second
)

// Client is a netsim.Transport that reaches nodes over TCP using the
// multiplexed protocol: concurrent Calls to the same peer share a small
// budget of connections, each pipelining up to Window requests identified
// by per-connection request ids. Completion is asynchronous — a response
// wakes exactly the caller whose id it carries — so one slow request never
// blocks the connection. When every slot toward a peer is occupied, a new
// Call queues for up to QueueWait and then fails with ErrBackpressure.
//
// All tunables must be set before the first Call.
type Client struct {
	// ConnsPerPeer is the connection budget per destination (default 2).
	ConnsPerPeer int
	// Window bounds in-flight requests per connection (default 128).
	Window int
	// QueueWait bounds how long a Call waits for a window slot before
	// failing with ErrBackpressure (default 10s).
	QueueWait time.Duration

	mu    sync.Mutex
	addrs map[netsim.NodeID]string // guarded by mu
	peers map[netsim.NodeID]*peer  // guarded by mu
}

// NewClient returns a TCP transport over the given node address map.
func NewClient(addrs map[netsim.NodeID]string) *Client {
	m := make(map[netsim.NodeID]string, len(addrs))
	for k, v := range addrs {
		m[k] = v
	}
	return &Client{
		ConnsPerPeer: defaultConnsPerPeer,
		Window:       defaultWindow,
		QueueWait:    defaultQueueWait,
		addrs:        m,
		peers:        make(map[netsim.NodeID]*peer),
	}
}

// SetAddr adds or replaces a node's address (used after fail-over). Any
// existing connections to the node are torn down; their in-flight calls
// fail with ErrUnreachable and subsequent calls re-dial the new address.
func (c *Client) SetAddr(id netsim.NodeID, addr string) {
	c.mu.Lock()
	c.addrs[id] = addr
	p := c.peers[id]
	delete(c.peers, id)
	c.mu.Unlock()
	if p != nil {
		p.close(fmt.Errorf("rpcnet: node %d re-addressed", id))
	}
}

// Close drops all connections. In-flight calls fail with ErrUnreachable.
func (c *Client) Close() {
	c.mu.Lock()
	peers := c.peers
	c.peers = make(map[netsim.NodeID]*peer)
	c.mu.Unlock()
	for _, p := range peers {
		p.close(errors.New("rpcnet: client closed"))
	}
}

// Call implements netsim.Transport.
func (c *Client) Call(to netsim.NodeID, req any) (any, error) {
	frame := newFrame()
	if err := encodePayload(frame, req, nil); err != nil {
		return nil, err
	}
	// A connection found already-dead before the request was written is
	// retried once on a fresh dial; after the request is on the wire a
	// failure is surfaced, never retried (the transport cannot know whether
	// the server executed it).
	for attempt := 0; ; attempt++ {
		mc, err := c.muxConnFor(to)
		if err != nil {
			return nil, err
		}
		resp, err, retry := mc.roundTrip(frame.Bytes(), c.queueWait())
		if retry && attempt < 2 {
			continue
		}
		return resp, err
	}
}

func (c *Client) queueWait() time.Duration {
	if c.QueueWait > 0 {
		return c.QueueWait
	}
	return defaultQueueWait
}

// peer is the state for one destination: a fixed-size slot array
// of connections, dialed lazily and replaced when they die.
type peer struct {
	addr   string
	window int
	rr     atomic.Uint32

	mu     sync.Mutex
	conns  []*muxConn // guarded by mu
	closed bool       // guarded by mu
}

// muxConnFor picks (or dials) a connection to the peer, round-robin over
// the budget.
func (c *Client) muxConnFor(to netsim.NodeID) (*muxConn, error) {
	c.mu.Lock()
	p, ok := c.peers[to]
	if !ok {
		addr, haveAddr := c.addrs[to]
		if !haveAddr {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: node %d has no address", netsim.ErrUnreachable, to)
		}
		budget := c.ConnsPerPeer
		if budget <= 0 {
			budget = defaultConnsPerPeer
		}
		window := c.Window
		if window <= 0 {
			window = defaultWindow
		}
		p = &peer{addr: addr, window: window, conns: make([]*muxConn, budget)}
		c.peers[to] = p
	}
	c.mu.Unlock()

	idx := int(p.rr.Add(1)) % len(p.conns)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: node %d", netsim.ErrUnreachable, to)
	}
	mc := p.conns[idx]
	if mc != nil && !mc.isDead() {
		p.mu.Unlock()
		return mc, nil
	}
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", netsim.ErrUnreachable, err)
	}
	if _, err := conn.Write(wire.AppendFramePreamble(nil)); err != nil {
		conn.Close()
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", netsim.ErrUnreachable, err)
	}
	mc = newMuxConn(conn, p.window)
	p.conns[idx] = mc
	p.mu.Unlock()
	//lint:ignore leakcheck readLoop's shutdown signal is its socket: peer.close closes the conn, the blocked Read returns, and the loop exits via mc.fail
	go mc.readLoop()
	return mc, nil
}

// close tears down every connection; in-flight calls observe cause.
func (p *peer) close(cause error) {
	p.mu.Lock()
	p.closed = true
	conns := append([]*muxConn(nil), p.conns...)
	p.mu.Unlock()
	for _, mc := range conns {
		if mc != nil {
			mc.fail(cause)
		}
	}
}

// muxReply is what a caller receives for its request id.
type muxReply struct {
	flags wire.FrameFlags
	body  any
	herr  error // the handler's error
	err   error // transport-level failure (connection died, payload corrupt)
}

// muxConn is one multiplexed connection: a slot semaphore bounding the
// in-flight window, a write mutex serializing frames, and a pending map
// routing each response id to its caller's channel.
type muxConn struct {
	conn  net.Conn
	slots chan struct{}
	wmu   sync.Mutex

	mu      sync.Mutex
	nextID  uint64                   // guarded by mu
	pending map[uint64]chan muxReply // guarded by mu
	dead    bool                     // guarded by mu
}

func newMuxConn(conn net.Conn, window int) *muxConn {
	return &muxConn{
		conn:    conn,
		slots:   make(chan struct{}, window),
		pending: make(map[uint64]chan muxReply),
	}
}

func (mc *muxConn) isDead() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.dead
}

// fail marks the connection dead and delivers err to every in-flight call.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		return
	}
	mc.dead = true
	pending := mc.pending
	mc.pending = make(map[uint64]chan muxReply)
	mc.mu.Unlock()
	mc.conn.Close()
	for _, ch := range pending {
		ch <- muxReply{err: err}
	}
}

// readLoop pumps response frames and routes each to the caller registered
// under its id. It exits (failing all in-flight calls) when the connection
// dies.
func (mc *muxConn) readLoop() {
	for {
		hdr, payload, err := readFrameMux(mc.conn)
		if err != nil {
			mc.fail(err)
			return
		}
		rep := muxReply{flags: hdr.Flags}
		rep.body, rep.herr, rep.err = decodePayload(payload)
		mc.mu.Lock()
		ch, ok := mc.pending[hdr.ID]
		delete(mc.pending, hdr.ID)
		mc.mu.Unlock()
		if !ok {
			continue // response for an abandoned id; drop it
		}
		ch <- rep
	}
}

// roundTrip sends one request frame (see newFrame) and waits for its
// response. retry is true when the connection was dead before the request
// was written, so the caller may safely try a fresh connection.
func (mc *muxConn) roundTrip(frame []byte, queueWait time.Duration) (resp any, err error, retry bool) {
	// Acquire an in-flight slot: this is the client half of backpressure.
	select {
	case mc.slots <- struct{}{}:
	default:
		t := time.NewTimer(queueWait)
		select {
		case mc.slots <- struct{}{}:
			t.Stop()
		case <-t.C:
			return nil, fmt.Errorf("%w (waited %v)", ErrBackpressure, queueWait), false
		}
	}
	release := func() { <-mc.slots }

	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		release()
		return nil, fmt.Errorf("%w: connection closed", netsim.ErrUnreachable), true
	}
	id := mc.nextID
	mc.nextID++
	ch := make(chan muxReply, 1)
	mc.pending[id] = ch
	mc.mu.Unlock()

	if err := writeFrameMux(mc.conn, &mc.wmu, id, 0, frame); err != nil {
		mc.fail(err) // delivers to our channel too
	}
	rep := <-ch
	release()
	switch {
	case rep.err != nil:
		return nil, fmt.Errorf("%w: %v", netsim.ErrUnreachable, rep.err), false
	case rep.herr != nil:
		return nil, rep.herr, false
	default:
		return rep.body, nil, false
	}
}
