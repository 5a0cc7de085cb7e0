package main

import (
	"fmt"
	"net"

	"minuet/internal/alloc"
	"minuet/internal/core"
	"minuet/internal/netsim"
	"minuet/internal/rpcnet"
	"minuet/internal/sinfonia"
	"minuet/internal/wal"
)

// The driver assembles the stack itself from the layers' public
// constructors, so that a decorator can sit on every seam and so that the
// benchmark depends on no assembly helper a later change might reshape.

const (
	numMemnodes  = 2
	nodeSize     = 4096 // the paper's B-tree node size
	allocExtent  = 64
	benchTreeIdx = 0
)

// client is one proxy: a Sinfonia client, its allocator and its own B-tree
// handle with a private node cache.
type client struct {
	sc   *sinfonia.Client
	al   *alloc.Allocator
	bt   *core.BTree
	cell *opCell
}

type stack struct {
	w         *workload
	tr        *tracer
	nodes     []sinfonia.NodeID
	memnodes  []*sinfonia.Memnode
	disks     []*wal.MemFS     // durable workloads: one log directory per memnode
	servers   []*rpcnet.Server // TCP workloads
	tcp       *rpcnet.Client
	transport netsim.Transport // what clients call, before any decorator
	fg        *client          // the foreground client
	closed    bool
}

// buildStack starts the memnodes of workload w behind its transport. disks,
// when given, are log directories to recover from; otherwise a durable
// workload starts on empty ones. With a tracer every seam gets a decorator.
func buildStack(w *workload, tr *tracer, disks []*wal.MemFS) (*stack, error) {
	s := &stack{w: w, tr: tr}
	local := netsim.NewLocal(0)
	addrs := make(map[netsim.NodeID]string)
	for i := 0; i < numMemnodes; i++ {
		id := sinfonia.NodeID(i)
		s.nodes = append(s.nodes, id)
		var mn *sinfonia.Memnode
		if !w.durable {
			mn = sinfonia.NewMemnode(id)
		} else {
			disk := wal.NewMemFS()
			if disks != nil {
				disk = disks[i]
			}
			s.disks = append(s.disks, disk)
			var fs wal.FS = disk
			if tr != nil {
				fs = &tracedFS{tr: tr, next: disk, node: id}
			}
			// Fsync stays on (MemFS counts flushes exactly); checkpoints
			// are taken by the driver once per round, never by a threshold.
			var err error
			if mn, err = sinfonia.OpenDurable(id, fs, sinfonia.DurOptions{CheckpointEvery: -1}); err != nil {
				s.close()
				return nil, err
			}
		}
		s.memnodes = append(s.memnodes, mn)
		var h netsim.Handler = mn
		if tr != nil {
			h = &tracedHandler{tr: tr, next: mn, node: id}
		}
		if !w.tcp {
			local.Bind(id, h)
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		if tr != nil {
			ln = countingListener{Listener: ln, n: &tr.wireBytes}
		}
		srv := rpcnet.Serve(ln, h)
		s.servers = append(s.servers, srv)
		addrs[id] = srv.Addr()
	}
	s.transport = local
	if w.tcp {
		s.tcp = rpcnet.NewClient(addrs) // protocol v2, 2 connections per peer
		s.transport = s.tcp
	}
	return s, nil
}

func (s *stack) treeConfig() core.Config {
	return core.Config{NodeSize: nodeSize, DirtyTraversals: true, Branching: s.w.branching, Beta: 2}
}

// newClient returns a proxy with its own Sinfonia client, allocator, cache
// and (when tracing) transport decorator. create initializes the tree;
// otherwise the existing tree is opened.
func (s *stack) newClient(cell *opCell, create bool) (*client, error) {
	t := s.transport
	if s.tr != nil {
		t = &tracedTransport{tr: s.tr, next: t, cell: cell}
	}
	c := &client{cell: cell}
	c.sc = sinfonia.NewClient(t, s.nodes)
	c.al = alloc.New(c.sc, nodeSize, allocExtent)
	var err error
	if create {
		c.bt, err = core.Create(c.sc, c.al, benchTreeIdx, s.nodes[0], s.treeConfig())
	} else {
		c.bt, err = core.Open(c.sc, c.al, benchTreeIdx, s.nodes[0], s.treeConfig())
	}
	if err != nil {
		return nil, fmt.Errorf("tree handle: %w", err)
	}
	return c, nil
}

// memnodeStats sums the memnodes' counters, fetched over the transport the
// way an operator would.
func (s *stack) memnodeStats() (sinfonia.StatsResp, error) {
	var sum sinfonia.StatsResp
	for _, n := range s.nodes {
		st, err := s.fg.sc.Stats(n)
		if err != nil {
			return sum, err
		}
		sum.Items += st.Items
		sum.Commits += st.Commits
		sum.Aborts += st.Aborts
		sum.BusyAborts += st.BusyAborts
		sum.Bytes += st.Bytes
	}
	return sum, nil
}

func (s *stack) walStats() wal.Stats {
	var sum wal.Stats
	for _, mn := range s.memnodes {
		st := mn.WALStats()
		sum.Appends += st.Appends
		sum.Bytes += st.Bytes
		sum.Syncs += st.Syncs
	}
	return sum
}

// close stops everything the stack started and waits for it. Closing twice
// is harmless.
func (s *stack) close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.tcp != nil {
		s.tcp.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, mn := range s.memnodes {
		_ = mn.Close() // a log that failed already failed the run's writes
	}
}
