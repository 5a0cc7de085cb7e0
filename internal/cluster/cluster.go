// Package cluster assembles an in-process Minuet deployment mirroring the
// paper's experimental layout (Fig 9): each simulated machine runs one
// memnode and one proxy, connected by a latency-injecting transport.
// Primary-backup replication pairs each memnode with the next machine's
// memnode, matching "each server acts as both a primary node and a backup".
//
// The cluster also hosts the snapshot creation service (§4.3): one SCS per
// tree, exported over the transport as an RPC endpoint so that proxies pay
// a network round trip to create or borrow snapshots, exactly as clients of
// the paper's centralized service do.
//
// This package is the in-process deployment; internal/prochost is its
// multi-process counterpart, spawning real minuet-server processes over
// TCP. See docs/ARCHITECTURE.md for how the two relate.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"minuet/internal/alloc"
	"minuet/internal/core"
	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
	"minuet/internal/wal"
)

// scsNodeID is the transport address of the snapshot creation service.
const scsNodeID netsim.NodeID = 1 << 20

// allocExtent is each proxy allocator's per-CAS extent size in blocks.
const allocExtent = 64

// Config describes a simulated cluster.
type Config struct {
	// Machines is the number of simulated hosts (memnode + proxy each).
	Machines int
	// OneWayLatency is the injected one-way network latency. Zero, the
	// default, injects none: calls run at function-call speed. The paper's
	// experiments use 50 µs, a 10 GigE data-center LAN figure.
	OneWayLatency time.Duration
	// Replicate enables primary-backup replication memnode i → i+1 mod n.
	Replicate bool
	// Tree is the default configuration for trees created on this cluster.
	Tree core.Config
	// Durability, when set, gives machine i a write-ahead log over the
	// returned filesystem (see internal/wal); a nil return leaves that
	// machine volatile. Building a cluster over filesystems that already
	// hold a log recovers the memnodes from it — that is how the crash
	// tests model a whole-cluster restart.
	Durability func(machine int) wal.FS
	// DurOpts configures the durable memnodes (fsync policy, checkpoint
	// threshold).
	DurOpts sinfonia.DurOptions
}

// FillDefaults populates zero fields.
func (c *Config) FillDefaults() {
	if c.Machines == 0 {
		c.Machines = 1
	}
	c.Tree.FillDefaults()
}

// Proxy is one machine's proxy process: a Sinfonia client, an allocator,
// and per-tree B-tree handles with private caches.
type Proxy struct {
	Index  int
	Client *sinfonia.Client
	Alloc  *alloc.Allocator
	Local  sinfonia.NodeID

	mu    sync.Mutex
	trees map[int]*core.BTree // guarded by mu
	cl    *Cluster
}

// Cluster is an assembled deployment.
type Cluster struct {
	cfg      Config
	tr       *netsim.Local
	memnodes []*sinfonia.Memnode
	proxies  []*Proxy

	recovery  *sinfonia.RecoveryCoordinator
	stop      chan struct{}
	stopped   chan struct{} // closed once the recovery loop has returned
	closeOnce sync.Once

	mu    sync.Mutex
	scs   map[int]*core.SCS // guarded by mu; treeIdx -> service (hosted on machine 0)
	trees int               // guarded by mu
}

// SCS RPC messages.
type snapshotReq struct {
	Tree int
}

type snapshotResp struct {
	Sid      uint64
	RootNode sinfonia.NodeID
	RootAddr sinfonia.Addr
	Borrowed bool
}

// New builds a cluster, panicking on failure. Only durable log recovery can
// fail, so volatile clusters (the common test case) never panic; durable
// callers should prefer Build.
func New(cfg Config) *Cluster {
	cl, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return cl
}

// Build assembles a cluster. Machines with a Durability filesystem are
// recovered from any log it already holds before they serve.
func Build(cfg Config) (*Cluster, error) {
	cfg.FillDefaults()
	cl := &Cluster{
		cfg: cfg,
		tr:  netsim.NewLocal(cfg.OneWayLatency),
		scs: make(map[int]*core.SCS),
	}
	nodes := make([]sinfonia.NodeID, cfg.Machines)
	for i := 0; i < cfg.Machines; i++ {
		id := sinfonia.NodeID(i)
		nodes[i] = id
		var mn *sinfonia.Memnode
		if cfg.Durability != nil {
			if fs := cfg.Durability(i); fs != nil {
				var err error
				mn, err = sinfonia.OpenDurable(id, fs, cfg.DurOpts)
				if err != nil {
					return nil, fmt.Errorf("cluster: machine %d: %w", i, err)
				}
			}
		}
		if mn == nil {
			mn = sinfonia.NewMemnode(id)
		}
		cl.memnodes = append(cl.memnodes, mn)
		cl.tr.Bind(id, mn)
	}
	if cfg.Replicate && cfg.Machines > 1 {
		for i, mn := range cl.memnodes {
			mn.SetBackup(cl.tr, nodes[(i+1)%len(nodes)])
		}
	}
	for i := 0; i < cfg.Machines; i++ {
		c := sinfonia.NewClient(cl.tr, nodes)
		cl.proxies = append(cl.proxies, &Proxy{
			Index:  i,
			Client: c,
			Alloc:  alloc.New(c, cfg.Tree.NodeSize, allocExtent),
			Local:  nodes[i],
			trees:  make(map[int]*core.BTree),
			cl:     cl,
		})
	}
	// The snapshot creation service runs on machine 0 and is reached over
	// the transport like any other node.
	cl.tr.Bind(scsNodeID, netsim.HandlerFunc(cl.handleSCS))
	// The recovery coordinator (Sinfonia's management process) resolves
	// minitransactions orphaned by crashed coordinators — including
	// prepares inherited by a promoted backup whose coordinator never
	// reached it. It sweeps in the background for the cluster's lifetime;
	// tests may additionally trigger sweeps explicitly.
	cl.recovery = sinfonia.NewRecoveryCoordinator(cl.tr, nodes)
	cl.stop = make(chan struct{})
	cl.stopped = make(chan struct{})
	go func() {
		defer close(cl.stopped)
		cl.recovery.Run(50*time.Millisecond, cl.stop)
	}()
	return cl, nil
}

// Close stops the cluster's background services (recovery sweeps), waits
// for them to return, and closes any durable memnode logs. Safe to call
// more than once.
func (cl *Cluster) Close() {
	cl.closeOnce.Do(func() {
		close(cl.stop)
		<-cl.stopped
		for _, mn := range cl.memnodes {
			_ = mn.Close()
		}
	})
}

// Memnode returns machine i's memnode (checkpoint control, WAL stats).
func (cl *Cluster) Memnode(i int) *sinfonia.Memnode { return cl.memnodes[i] }

// Recovery returns the cluster's recovery coordinator.
func (cl *Cluster) Recovery() *sinfonia.RecoveryCoordinator { return cl.recovery }

// Config returns the cluster's configuration.
func (cl *Cluster) Config() Config { return cl.cfg }

// Transport exposes the underlying transport (stats, fault injection).
func (cl *Cluster) Transport() *netsim.Local { return cl.tr }

// Machines returns the machine count.
func (cl *Cluster) Machines() int { return cl.cfg.Machines }

// Proxy returns machine i's proxy.
func (cl *Cluster) Proxy(i int) *Proxy { return cl.proxies[i%len(cl.proxies)] }

// CreateTree initializes tree treeIdx with the cluster's default tree
// configuration and registers an SCS for it.
func (cl *Cluster) CreateTree(treeIdx int) error {
	p0 := cl.proxies[0]
	bt, err := core.Create(p0.Client, p0.Alloc, treeIdx, p0.Local, cl.cfg.Tree)
	if err != nil {
		return err
	}
	p0.mu.Lock()
	p0.trees[treeIdx] = bt
	p0.mu.Unlock()

	cl.mu.Lock()
	cl.scs[treeIdx] = core.NewSCS(bt)
	if treeIdx >= cl.trees {
		cl.trees = treeIdx + 1
	}
	cl.mu.Unlock()
	return nil
}

// Tree returns proxy p's handle onto treeIdx, opening it on first use.
func (p *Proxy) Tree(treeIdx int) (*core.BTree, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if bt, ok := p.trees[treeIdx]; ok {
		return bt, nil
	}
	bt, err := core.Open(p.Client, p.Alloc, treeIdx, p.Local, p.cl.cfg.Tree)
	if err != nil {
		return nil, err
	}
	p.trees[treeIdx] = bt
	return bt, nil
}

// MustTree is Tree for callers that already created the tree.
func (p *Proxy) MustTree(treeIdx int) *core.BTree {
	bt, err := p.Tree(treeIdx)
	if err != nil {
		panic(err)
	}
	return bt
}

// handleSCS services snapshot-creation RPCs on machine 0.
func (cl *Cluster) handleSCS(req any) (any, error) {
	r, ok := req.(*snapshotReq)
	if !ok {
		return nil, fmt.Errorf("cluster: bad SCS request %T", req)
	}
	cl.mu.Lock()
	svc := cl.scs[r.Tree]
	cl.mu.Unlock()
	if svc == nil {
		return nil, fmt.Errorf("cluster: no SCS for tree %d", r.Tree)
	}
	snap, borrowed, err := svc.Create()
	if err != nil {
		return nil, err
	}
	return &snapshotResp{Sid: snap.Sid, RootNode: snap.Root.Node, RootAddr: snap.Root.Addr, Borrowed: borrowed}, nil
}

// Snapshot requests a snapshot of treeIdx through the cluster's snapshot
// creation service (one RPC round trip plus whatever the service does).
func (p *Proxy) Snapshot(treeIdx int) (core.Snapshot, bool, error) {
	resp, err := p.Client.Transport().Call(scsNodeID, &snapshotReq{Tree: treeIdx})
	if err != nil {
		return core.Snapshot{}, false, err
	}
	sr, ok := resp.(*snapshotResp)
	if !ok {
		return core.Snapshot{}, false, fmt.Errorf("cluster: bad SCS response %T", resp)
	}
	return core.Snapshot{Sid: sr.Sid, Root: sinfonia.Ptr{Node: sr.RootNode, Addr: sr.RootAddr}}, sr.Borrowed, nil
}

// SCS returns the snapshot creation service for a tree (to set MinInterval
// or disable borrowing in experiments).
func (cl *Cluster) SCS(treeIdx int) *core.SCS {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.scs[treeIdx]
}

// RunGC advances treeIdx's watermark to keep only the most recent
// `keepRecent` snapshots and frees collectible nodes. Machine 0 owns
// garbage collection.
func (cl *Cluster) RunGC(treeIdx int, keepRecent uint64) (int, error) {
	bt, err := cl.proxies[0].Tree(treeIdx)
	if err != nil {
		return 0, err
	}
	return bt.RunGCKeepRecent(keepRecent)
}

// CrashMachine takes machine i's memnode offline with fail-stop semantics:
// new requests are refused, in-flight responses are dropped, and the call
// returns only once every handler on the dead node has finished — so a
// backup promoted afterwards has seen everything the primary will ever
// replicate.
func (cl *Cluster) CrashMachine(i int) {
	cl.tr.SetDown(sinfonia.NodeID(i), true)
	cl.tr.Quiesce(sinfonia.NodeID(i))
}

// RecoverMachine promotes machine i's backup (hosted on machine i+1) and
// rebinds it under the crashed memnode's identity, then brings the address
// back online and re-arms the replication ring: the promoted node resumes
// forwarding to machine i+1 and re-seeds its own mirror of machine i-1
// (whose previous mirror died with the crashed host). Requires Replicate.
func (cl *Cluster) RecoverMachine(i int) error {
	if !cl.cfg.Replicate {
		return fmt.Errorf("cluster: replication disabled")
	}
	n := len(cl.memnodes)
	id := sinfonia.NodeID(i)
	backupHost := cl.memnodes[(i+1)%n]
	promoted := backupHost.PromoteReplica(id)
	if n > 1 {
		promoted.SetBackup(cl.tr, sinfonia.NodeID((i+1)%n))
	}
	// Re-mirror the prepares inherited at promotion to the new backup
	// BEFORE the node comes online: they were mirrored to the dead host's
	// chain, and a second fault before this step would otherwise strand
	// (or lose) transactions some participant already voted yes on. Done
	// while still offline so no prepare can be resolved mid-remirror (the
	// backup's resolution log additionally fences any such race).
	promoted.RemirrorStaged()

	cl.memnodes[i] = promoted
	cl.tr.Bind(id, promoted)
	cl.tr.SetDown(id, false)

	// Take over backup duty for the predecessor: pull its full state —
	// committed items and in-flight prepares — and merge under the version
	// guard (bringing the node online first means fresh replica applies and
	// the seed interleave safely).
	pred := sinfonia.NodeID((i - 1 + n) % n)
	if pred != id {
		if resp, err := cl.tr.Call(pred, &sinfonia.SnapshotStateReq{}); err == nil {
			if st, ok := resp.(*sinfonia.SnapshotStateResp); ok {
				promoted.SeedReplica(pred, st)
			}
		}
	}
	return nil
}

// MemnodeStats returns each memnode's counters via the wire protocol.
func (cl *Cluster) MemnodeStats() ([]*sinfonia.StatsResp, error) {
	c := cl.proxies[0].Client
	out := make([]*sinfonia.StatsResp, cl.cfg.Machines)
	for i := 0; i < cl.cfg.Machines; i++ {
		st, err := c.Stats(sinfonia.NodeID(i))
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}
