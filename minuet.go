// Package minuet is a distributed, main-memory, multiversion B-tree that
// supports short transactional operations and long-running analytics in the
// same system — a from-scratch Go implementation of "Minuet: A Scalable
// Distributed Multiversion B-Tree" (Sowell, Golab, Shah; VLDB 2012).
//
// A Cluster simulates the paper's deployment in-process: each machine runs
// a Sinfonia memnode and a Minuet proxy over a latency-injecting transport.
// Trees expose strictly serializable key-value operations (Get/Put/Delete/
// Scan), copy-on-write snapshots for in-situ analytics, and — when branching
// is enabled — writable clones forming a version tree.
//
// Quick start:
//
//	c := minuet.NewCluster(minuet.Options{Machines: 4})
//	defer c.Close()
//	tree, _ := c.CreateTree("orders")
//	_ = tree.Put([]byte("k"), []byte("v"))
//	v, ok, _ := tree.Get([]byte("k"))
//	snap, _ := tree.Snapshot()              // freeze a version
//	rows, _ := tree.ScanSnapshot(snap, nil, 1e6) // analyze it, undisturbed
//
// Write-heavy workloads should batch: a Batch groups many Put/Delete
// operations into one optimistic transaction that validates and rewrites
// each touched leaf once and commits in a handful of minitransaction round
// trips (prefetching leaves with one concurrent fetch per memnode), instead
// of two round trips per key. The batch applies atomically — all of it
// becomes visible at the commit instant, or none on conflict/crash:
//
//	b := tree.NewBatch()
//	for i := 0; i < 10_000; i++ {
//		b.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v"))
//	}
//	b.Delete([]byte("k00000"))
//	if err := tree.WriteBatch(b); err != nil { ... }
//
// The same stack runs over real sockets: cmd/minuet-server hosts a memnode
// per process, internal/rpcnet is the multiplexed TCP transport, and
// internal/prochost spawns whole multi-process clusters for tests and
// cmd/minuet-load. See docs/ARCHITECTURE.md for the layer map and
// docs/WIRE.md for the wire protocol.
package minuet

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"minuet/internal/cluster"
	"minuet/internal/core"
	"minuet/internal/dyntx"
	"minuet/internal/sinfonia"
	"minuet/internal/wal"
)

// Options configures a Cluster. The zero value is a usable single-machine
// deployment with the paper's defaults (4 KiB nodes, dirty traversals on).
type Options struct {
	// Machines is the number of simulated hosts, each running one memnode
	// and one proxy (default 1).
	Machines int
	// NetworkLatency is the simulated one-way network latency between
	// processes (default 0: function-call speed; experiments use ~50 µs).
	NetworkLatency time.Duration
	// Replicate enables synchronous primary-backup replication of each
	// memnode onto the next machine.
	Replicate bool
	// NodeSize is the B-tree node size in bytes (default 4096).
	NodeSize int
	// MaxLeafKeys / MaxInnerKeys override the fanout derived from NodeSize.
	MaxLeafKeys  int
	MaxInnerKeys int
	// Branching enables writable clones (version trees).
	Branching bool
	// Beta bounds the version tree's branching factor and per-node
	// descendant sets (default 2).
	Beta int
	// DataDir, when set, gives each memnode a write-ahead redo log in
	// <DataDir>/node-<i>: acknowledged writes survive a cluster restart
	// over the same directory. Empty keeps memnodes purely in-memory.
	DataDir string
	// NoFsync skips log fsyncs (with DataDir): commits survive process
	// crashes but not machine crashes.
	NoFsync bool
}

// Cluster is an in-process Minuet deployment.
type Cluster struct {
	cl *cluster.Cluster

	mu    sync.Mutex
	names map[string]int
	next  int
}

// Snapshot identifies a read-only version of a tree.
type Snapshot = core.Snapshot

// KV is a key-value pair returned by scans, cursors and diffs. Its Key and
// Val point into the tree node the pair was read from — a scan copies nothing
// per pair — so treat them as read-only and copy what must outlive the
// result: a retained pair keeps its whole node (4 KiB by default) alive.
// Point lookups (Get, GetAt, GetSnapshot, Tx.Get) return a private copy the
// caller owns, and every write copies the key and value it is given before it
// returns.
type KV = core.KV

// ErrTooLarge reports a write whose key or value is longer than 65535 bytes
// (nodes store records behind a 16-bit length). Nothing is written: a batch
// with one such operation is refused whole.
var ErrTooLarge = core.ErrTooLarge

// ErrNotWritable reports a write to a version that has been branched.
var ErrNotWritable = core.ErrNotWritable

// ErrBranchLimit reports exceeding the version tree's branching factor.
var ErrBranchLimit = core.ErrBranchLimit

// ErrNotBranching reports a version-addressed call (PutAt, GetAt, Branch,
// WriteBatchAt, ...) on a tree created without Options.Branching.
var ErrNotBranching = core.ErrNotBranching

// NewCluster starts a simulated cluster.
func NewCluster(opts Options) *Cluster {
	cfg := cluster.Config{
		Machines:      opts.Machines,
		OneWayLatency: opts.NetworkLatency,
		Replicate:     opts.Replicate,
		Tree: core.Config{
			NodeSize:        opts.NodeSize,
			MaxLeafKeys:     opts.MaxLeafKeys,
			MaxInnerKeys:    opts.MaxInnerKeys,
			DirtyTraversals: true,
			Branching:       opts.Branching,
			Beta:            opts.Beta,
		},
	}
	if opts.DataDir != "" {
		machines := cfg.Machines
		if machines == 0 {
			machines = 1
		}
		fss := make([]wal.FS, machines)
		for i := range fss {
			fs, err := wal.NewOSFS(filepath.Join(opts.DataDir, fmt.Sprintf("node-%d", i)))
			if err != nil {
				panic(err)
			}
			fss[i] = fs
		}
		cfg.Durability = func(i int) wal.FS { return fss[i] }
		cfg.DurOpts = sinfonia.DurOptions{NoFsync: opts.NoFsync}
	}
	return &Cluster{cl: cluster.New(cfg), names: make(map[string]int)}
}

// Close releases the cluster, stopping its background services (the
// recovery coordinator's sweep loop).
func (c *Cluster) Close() { c.cl.Close() }

// Machines returns the machine count.
func (c *Cluster) Machines() int { return c.cl.Machines() }

// Internal returns the underlying cluster harness for benchmarks and tests
// that need lower-level access (transport stats, fault injection).
func (c *Cluster) Internal() *cluster.Cluster { return c.cl }

// CreateTree initializes a named tree and returns a handle bound to
// machine 0's proxy.
func (c *Cluster) CreateTree(name string) (*Tree, error) {
	c.mu.Lock()
	if _, dup := c.names[name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("minuet: tree %q already exists", name)
	}
	idx := c.next
	c.next++
	c.names[name] = idx
	c.mu.Unlock()

	if err := c.cl.CreateTree(idx); err != nil {
		return nil, err
	}
	return c.OpenTree(name, 0)
}

// AdoptTree registers a tree created by a previous incarnation of this
// cluster (on durable memnodes — see Options.DataDir) and opens it from the
// recovered storage without reinitializing it. The name→index catalog is
// client-side, so names must be adopted in their original creation order.
func (c *Cluster) AdoptTree(name string) (*Tree, error) {
	c.mu.Lock()
	if _, dup := c.names[name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("minuet: tree %q already exists", name)
	}
	idx := c.next
	c.next++
	c.names[name] = idx
	c.mu.Unlock()
	return c.OpenTree(name, 0)
}

// OpenTree returns a handle onto an existing tree, bound to the given
// machine's proxy. Handles are safe for concurrent use; separate proxies
// have independent caches (like separate application servers).
func (c *Cluster) OpenTree(name string, machine int) (*Tree, error) {
	c.mu.Lock()
	idx, ok := c.names[name]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("minuet: unknown tree %q", name)
	}
	p := c.cl.Proxy(machine)
	bt, err := p.Tree(idx)
	if err != nil {
		return nil, err
	}
	return &Tree{name: name, idx: idx, bt: bt, proxy: p, c: c}, nil
}

// Tree is a handle onto one distributed B-tree through one proxy.
type Tree struct {
	name  string
	idx   int
	bt    *core.BTree
	proxy *cluster.Proxy
	c     *Cluster

	borrowOnce sync.Once
	borrower   *core.ProxyBorrower
}

// Name returns the tree's name.
func (t *Tree) Name() string { return t.name }

// Get returns the value for key at the tip (strictly serializable). On a
// branching tree the tip is the mainline's current writable version (the
// chain of first branches from the initial version).
func (t *Tree) Get(key []byte) (val []byte, ok bool, err error) { return t.bt.Get(key) }

// Put inserts or replaces key at the tip (the mainline's writable version
// on a branching tree; use PutAt to address a sibling branch).
func (t *Tree) Put(key, val []byte) error { return t.bt.Put(key, val) }

// Delete removes key at the tip, reporting whether it existed.
func (t *Tree) Delete(key []byte) (existed bool, err error) { return t.bt.Remove(key) }

// Scan returns up to limit pairs with key ≥ start from the tip as one
// strictly serializable transaction. Long scans under concurrent writes
// will abort and retry; use Snapshot + ScanSnapshot for analytics.
func (t *Tree) Scan(start []byte, limit int) ([]KV, error) { return t.bt.ScanTip(start, limit) }

// Batch accumulates Put and Delete operations for a single atomic,
// round-trip-amortized write (see WriteBatch). A Batch is not safe for
// concurrent use; it may be reused after WriteBatch by calling Reset.
type Batch struct {
	ops []core.BatchOp
}

// NewBatch returns an empty batch for this tree.
func (t *Tree) NewBatch() *Batch { return &Batch{} }

// Put queues an insert-or-replace of key.
func (b *Batch) Put(key, val []byte) {
	b.ops = append(b.ops, core.BatchOp{Key: key, Val: val})
}

// Delete queues a removal of key (absent keys are ignored at apply time).
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, core.BatchOp{Key: key, Delete: true})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset empties the batch for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// WriteBatch applies every operation in b to the tip as ONE optimistic
// transaction: duplicate keys collapse to the last queued operation, each
// touched leaf is validated and rewritten once, touched leaves are
// prefetched with one concurrent multi-read minitransaction per memnode,
// and the commit is a single (possibly two-phase) minitransaction. The
// batch is atomic — a concurrent reader sees either none or all of it —
// and retries with backoff on conflict with concurrent writers.
//
// For n keys spread over L leaves on M memnodes, the whole batch costs
// O(M) round trips instead of the ~2n of individual Puts (assuming warm
// interior caches), which is the difference between network-bound and
// memory-bound bulk loads.
//
// On a branching tree the batch lands on the mainline tip (the writable
// version reached by following first branches from the initial snapshot);
// use WriteBatchAt to target a specific branch.
func (t *Tree) WriteBatch(b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	return t.bt.ApplyBatch(b.ops)
}

// WriteBatchAt applies every operation in b to writable version sid of a
// branching tree as ONE optimistic transaction, with the same leaf-grouped
// sweep, prefetch, and atomicity as WriteBatch. Copy-on-write copies are
// made along each touched root-to-leaf path, so sibling versions and frozen
// ancestors are never disturbed. Writing to a version that has been
// branched returns ErrNotWritable.
func (t *Tree) WriteBatchAt(sid uint64, b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	return t.bt.ApplyBatchAt(sid, b.ops)
}

// Snapshot freezes the current state through the cluster's snapshot
// creation service, which serializes creations and transparently shares
// ("borrows") snapshots between concurrent requests while preserving strict
// serializability (§4.3 of the paper).
func (t *Tree) Snapshot() (Snapshot, error) {
	s, _, err := t.proxy.Snapshot(t.idx)
	return s, err
}

// SnapshotBorrowed is Snapshot with proxy-side borrowing layered on top —
// the extension §4.3 of the paper sketches: bursts of local snapshot
// requests share a snapshot acquired during their wait, skipping the
// round trip to the snapshot creation service entirely, while preserving
// strict serializability. borrowed reports whether this request reused a
// locally acquired snapshot.
func (t *Tree) SnapshotBorrowed() (snap Snapshot, borrowed bool, err error) {
	t.borrowOnce.Do(func() {
		t.borrower = core.NewProxyBorrower(func() (Snapshot, error) {
			s, _, err := t.proxy.Snapshot(t.idx)
			return s, err
		})
	})
	return t.borrower.Get()
}

// Cursor streams a snapshot's pairs in key order starting at the first key
// ≥ start (nil = smallest), fetching one leaf per step — the iterator
// counterpart of ScanSnapshot for aggregations larger than memory.
func (t *Tree) Cursor(s Snapshot, start []byte) *core.Cursor {
	return t.bt.NewCursor(s, start)
}

// GetSnapshot reads key from a read-only snapshot without any validation
// traffic.
func (t *Tree) GetSnapshot(s Snapshot, key []byte) (val []byte, ok bool, err error) {
	return t.bt.GetSnap(s, key)
}

// ScanSnapshot reads up to limit pairs with key ≥ start from a read-only
// snapshot. Concurrent tip writes do not disturb it.
func (t *Tree) ScanSnapshot(s Snapshot, start []byte, limit int) ([]KV, error) {
	return t.bt.ScanSnapshot(s, start, limit)
}

// Branch creates a writable clone of version sid (branching mode only).
// The first branch of a writable tip freezes it; the returned snapshot's
// Sid is the new writable version.
func (t *Tree) Branch(from uint64) (Snapshot, error) { return t.bt.CreateBranch(from) }

// GetAt reads key in a specific version (writable tips are validated).
func (t *Tree) GetAt(sid uint64, key []byte) (val []byte, ok bool, err error) {
	return t.bt.GetAt(sid, key)
}

// PutAt writes key in a writable version.
func (t *Tree) PutAt(sid uint64, key, val []byte) error { return t.bt.PutAt(sid, key, val) }

// DeleteAt removes key in a writable version.
func (t *Tree) DeleteAt(sid uint64, key []byte) (existed bool, err error) {
	return t.bt.RemoveAt(sid, key)
}

// ScanAt scans a specific version.
func (t *Tree) ScanAt(sid uint64, start []byte, limit int) ([]KV, error) {
	return t.bt.ScanAt(sid, start, limit)
}

// ResolveTip follows the mainline from sid to the current writable tip.
func (t *Tree) ResolveTip(sid uint64) (uint64, error) { return t.bt.ResolveTip(sid) }

// DiffKind classifies one entry of a version diff.
type DiffKind = core.DiffKind

// Difference kinds returned by Diff and DiffAt.
const (
	DiffAdded   = core.DiffAdded
	DiffRemoved = core.DiffRemoved
	DiffChanged = core.DiffChanged
)

// DiffEntry is one key-level difference between two versions.
type DiffEntry = core.DiffEntry

// Diff returns the key-level differences between two snapshots in key
// order (up to limit entries; 0 = unlimited). Copy-on-write structure
// sharing makes the cost proportional to the divergence, not the tree
// size.
func (t *Tree) Diff(a, b Snapshot, limit int) ([]DiffEntry, error) {
	return t.bt.DiffSnapshots(a, b, limit)
}

// DiffAt diffs two versions of a branching tree by id.
func (t *Tree) DiffAt(a, b uint64, limit int) ([]DiffEntry, error) {
	return t.bt.DiffVersions(a, b, limit)
}

// VersionValue is one version's view of a key, returned by the vertical
// and horizontal version queries.
type VersionValue = core.VersionValue

// KeyHistory is a vertical version query (branching mode): the value of
// key at version sid and every ancestor, oldest first.
func (t *Tree) KeyHistory(sid uint64, key []byte) ([]VersionValue, error) {
	return t.bt.KeyHistory(sid, key)
}

// KeyChanges is KeyHistory filtered to versions where the value changed.
func (t *Tree) KeyChanges(sid uint64, key []byte) ([]VersionValue, error) {
	return t.bt.KeyChanges(sid, key)
}

// KeyAcrossTips is a horizontal version query (branching mode): the value
// of key at every writable tip descending from version `from`.
func (t *Tree) KeyAcrossTips(from uint64, key []byte) ([]VersionValue, error) {
	return t.bt.KeyAcrossTips(from, key)
}

// Tip returns the current tip version.
func (t *Tree) Tip() (Snapshot, error) { return t.bt.Tip() }

// CollectGarbage keeps the most recent keepRecent snapshots queryable and
// frees nodes exclusive to older ones, returning the count freed.
func (t *Tree) CollectGarbage(keepRecent uint64) (int, error) {
	return t.c.cl.RunGC(t.idx, keepRecent)
}

// Stats returns this handle's operation counters.
func (t *Tree) Stats() core.Stats { return t.bt.Stats() }

// Core exposes the underlying core handle for benchmarks.
func (t *Tree) Core() *core.BTree { return t.bt }

// Tx is a multi-tree transaction: reads and writes across several trees
// (on the same proxy) commit atomically with strict serializability — the
// paper's multi-index transactions (§6.2).
type Tx struct {
	t     *dyntx.Txn
	proxy *cluster.Proxy
}

// Get reads a key through the transaction.
func (tx *Tx) Get(t *Tree, key []byte) (val []byte, ok bool, err error) {
	return t.bt.GetTxn(tx.t, key)
}

// Put writes a key through the transaction.
func (tx *Tx) Put(t *Tree, key, val []byte) error { return t.bt.PutTxn(tx.t, key, val) }

// Delete removes a key through the transaction.
func (tx *Tx) Delete(t *Tree, key []byte) (existed bool, err error) {
	return t.bt.RemoveTxn(tx.t, key)
}

// WriteBatch assembles a whole batch into the transaction (leaf-grouped,
// like Tree.WriteBatch); it commits atomically with the transaction's other
// reads and writes.
func (tx *Tx) WriteBatch(t *Tree, b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	return t.bt.BatchTxn(tx.t, b.ops)
}

// WriteBatchAt assembles a whole batch targeting writable version sid of a
// branching tree into the transaction; it commits atomically with the
// transaction's other reads and writes.
func (tx *Tx) WriteBatchAt(t *Tree, sid uint64, b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	return t.bt.BatchTxnAt(tx.t, sid, b.ops)
}

// Txn atomically executes fn across the given trees, which must all be
// handles from the same machine's proxy. fn may be re-executed on
// optimistic conflicts and must be idempotent.
func (c *Cluster) Txn(trees []*Tree, fn func(tx *Tx) error) error {
	if len(trees) == 0 {
		return errors.New("minuet: Txn requires at least one tree")
	}
	proxy := trees[0].proxy
	bts := make([]*core.BTree, len(trees))
	for i, t := range trees {
		if t.proxy != proxy {
			return errors.New("minuet: all trees in a Txn must share a proxy")
		}
		bts[i] = t.bt
	}
	return core.RunMulti(proxy.Client, bts, func(dt *dyntx.Txn) error {
		return fn(&Tx{t: dt, proxy: proxy})
	})
}
