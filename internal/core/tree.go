package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"minuet/internal/alloc"
	"minuet/internal/catalog"
	"minuet/internal/dyntx"
	"minuet/internal/sinfonia"
	"minuet/internal/space"
	"minuet/internal/wire"
)

// Config tunes a B-tree instance. The zero value plus FillDefaults gives
// 4 KiB nodes, linear snapshots and the legacy traversal mode; the paper's
// configuration also sets DirtyTraversals, as the public API does.
type Config struct {
	// NodeSize is the target encoded node size in bytes (paper: 4 KiB).
	// It determines the allocator block size and, if the fanout fields are
	// zero, the default fanout.
	NodeSize int
	// MaxLeafKeys and MaxInnerKeys bound node fanout; a node splits when it
	// exceeds the bound. Zero derives them from NodeSize assuming the
	// paper's 14-byte keys and 8-byte values.
	MaxLeafKeys  int
	MaxInnerKeys int
	// DirtyTraversals enables Minuet's traversal mode (§3). When false the
	// tree runs in legacy mode: every interior node on the path is
	// validated through the replicated sequence-number table, reproducing
	// the Aguilera et al. system (the Fig 10 baseline).
	DirtyTraversals bool
	// Branching enables writable clones (§5). Snapshot ids then form a
	// version tree recorded in the snapshot catalog.
	Branching bool
	// Beta bounds both the version tree's branching factor and each node's
	// redirect (descendant) set (§5.2). Default 2.
	Beta int
}

// FillDefaults populates zero fields with the paper's defaults.
func (c *Config) FillDefaults() {
	if c.NodeSize == 0 {
		c.NodeSize = 4096
	}
	if c.MaxLeafKeys == 0 {
		c.MaxLeafKeys = max(4, c.NodeSize/32) // ≈128 for 4 KiB nodes, 14 B keys + 8 B values
	}
	if c.MaxInnerKeys == 0 {
		c.MaxInnerKeys = max(4, c.NodeSize/30)
	}
	if c.Beta == 0 {
		c.Beta = 2
	}
}

// Stats aggregates a tree handle's operation counters.
type Stats struct {
	Ops        int64 // committed B-tree operations
	Retries    int64 // optimistic retries (validation failures, fence aborts)
	Roundtrips int64 // minitransactions issued by this handle's transactions
	CacheHits  int64
	CacheMiss  int64
	Splits     int64
	CopyOnWr   int64 // nodes copied-on-write
	Discretion int64 // discretionary copies (branching mode)
}

// tipState is the proxy's cached copy of the replicated tip snapshot id and
// root location, together with the item versions observed at the local
// replica. Operations inject it into their read sets (§4.1); a failed
// validation invalidates it.
type tipState struct {
	valid   bool
	sid     uint64
	sidVer  uint64
	root    Ptr
	rootVer uint64
	// The two cells as fetched, which is the form read sets hold them in.
	sidImg, rootImg []byte
}

// BTree is one proxy's handle onto a distributed multiversion B-tree. A
// handle is safe for concurrent use by many goroutines; independent proxies
// each hold their own handle (with private caches) onto the same tree.
type BTree struct {
	idx   int
	cfg   Config
	c     *sinfonia.Client
	al    *alloc.Allocator
	cache *nodeCache
	local sinfonia.NodeID

	tipMu sync.Mutex
	tip   tipState // guarded by tipMu

	cat *catalog.Catalog // proxy view of the snapshot catalog; empty on a linear tree

	gcBusy atomic.Bool // serializes collectors within this handle

	ops        atomic.Int64
	retries    atomic.Int64
	rts        atomic.Int64
	splits     atomic.Int64
	copies     atomic.Int64
	discretion atomic.Int64
}

// ErrTreeExists is returned by Create when the tree is already initialized.
var ErrTreeExists = errors.New("core: tree already exists")

// ErrNotFound is returned by value lookups for absent keys.
var ErrNotFound = errors.New("core: key not found")

// initialSnapID is the snapshot id of a freshly created tree's tip.
const initialSnapID = 1

func ctlPtr(local sinfonia.NodeID, treeIdx int, field sinfonia.Addr) sinfonia.Ptr {
	return sinfonia.Ptr{Node: local, Addr: space.TreeCtlAddr(treeIdx) + field}
}

func encodeU64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

func decodeU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func encodePtr(p Ptr) []byte {
	var b [12]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(p.Node))
	binary.LittleEndian.PutUint64(b[4:], uint64(p.Addr))
	return b[:]
}

func decodePtr(b []byte) Ptr {
	if len(b) < 12 {
		return Ptr{}
	}
	return Ptr{
		Node: sinfonia.NodeID(int32(binary.LittleEndian.Uint32(b[0:]))),
		Addr: sinfonia.Addr(binary.LittleEndian.Uint64(b[4:])),
	}
}

// Create initializes tree treeIdx in the cluster and returns a handle bound
// to the given proxy-local memnode. The tree starts with two levels (an
// interior root over one empty leaf) so traversals always begin at an
// interior node, as Fig 5 assumes.
func Create(c *sinfonia.Client, al *alloc.Allocator, treeIdx int, local sinfonia.NodeID, cfg Config) (*BTree, error) {
	cfg.FillDefaults()

	leafPtr, err := al.Alloc()
	if err != nil {
		return nil, err
	}
	rootPtr, err := al.Alloc()
	if err != nil {
		return nil, err
	}
	leaf := &Node{Tree: uint16(treeIdx), Height: 0, Created: initialSnapID, Copied: NoSnap, Low: wire.NegInf, High: wire.PosInf}
	root := &Node{Tree: uint16(treeIdx), Height: 1, Created: initialSnapID, Copied: NoSnap, Low: wire.NegInf, High: wire.PosInf, Kids: []Ptr{leafPtr}}

	m := &sinfonia.Minitx{
		Writes: []sinfonia.WriteItem{
			{Node: leafPtr.Node, Addr: leafPtr.Addr, Data: leaf.encode()},
			{Node: rootPtr.Node, Addr: rootPtr.Addr, Data: root.encode()},
		},
	}
	// The control block is replicated on every memnode; guard against
	// double-creation by requiring version 0 of the tip id everywhere.
	for _, n := range c.Nodes() {
		m.Compares = append(m.Compares, sinfonia.CompareItem{
			Node: n, Addr: space.TreeCtlAddr(treeIdx) + space.CtlTipSnapID, Version: 0,
		})
		m.Writes = append(m.Writes,
			sinfonia.WriteItem{Node: n, Addr: space.TreeCtlAddr(treeIdx) + space.CtlTipSnapID, Data: encodeU64(initialSnapID)},
			sinfonia.WriteItem{Node: n, Addr: space.TreeCtlAddr(treeIdx) + space.CtlTipRoot, Data: encodePtr(rootPtr)},
			sinfonia.WriteItem{Node: n, Addr: space.TreeCtlAddr(treeIdx) + space.CtlNextSnapID, Data: encodeU64(initialSnapID + 1)},
			sinfonia.WriteItem{Node: n, Addr: space.TreeCtlAddr(treeIdx) + space.CtlLowestSnap, Data: encodeU64(initialSnapID)},
		)
		if cfg.Branching {
			m.Writes = append(m.Writes, sinfonia.WriteItem{
				Node: n, Addr: space.CatalogAddr(treeIdx, initialSnapID),
				Data: catalog.Encode(catalog.Entry{Sid: initialSnapID, Root: rootPtr}),
			})
		}
	}
	if _, err := c.Exec(m); err != nil {
		if sinfonia.IsCompareFailed(err) {
			return nil, ErrTreeExists
		}
		return nil, err
	}
	return Open(c, al, treeIdx, local, cfg)
}

// Open returns a proxy's handle onto an existing tree.
func Open(c *sinfonia.Client, al *alloc.Allocator, treeIdx int, local sinfonia.NodeID, cfg Config) (*BTree, error) {
	cfg.FillDefaults()
	bt := &BTree{
		idx:   treeIdx,
		cfg:   cfg,
		c:     c,
		al:    al,
		local: local,
		cat:   catalog.New(c, treeIdx, local),
		cache: newNodeCache(cacheEntries),
	}
	// Verify the tree exists.
	res, err := c.Read(ctlPtr(local, treeIdx, space.CtlTipSnapID))
	if err != nil {
		return nil, err
	}
	if !res.Exists {
		return nil, fmt.Errorf("core: tree %d not initialized", treeIdx)
	}
	return bt, nil
}

// Config returns the handle's configuration.
func (bt *BTree) Config() Config { return bt.cfg }

// Catalog returns the tree's catalog view (no entries on a linear tree).
func (bt *BTree) Catalog() *catalog.Catalog { return bt.cat }

// Client returns the underlying Sinfonia client.
func (bt *BTree) Client() *sinfonia.Client { return bt.c }

// Stats returns this handle's counters.
func (bt *BTree) Stats() Stats {
	s := Stats{
		Ops:        bt.ops.Load(),
		Retries:    bt.retries.Load(),
		Roundtrips: bt.rts.Load(),
		Splits:     bt.splits.Load(),
		CopyOnWr:   bt.copies.Load(),
		Discretion: bt.discretion.Load(),
	}
	s.CacheHits, s.CacheMiss, _ = bt.cache.stats()
	return s
}

// --- replicated control-object references -------------------------------

func (bt *BTree) refTipID() dyntx.Ref {
	return dyntx.Ref{Ptr: ctlPtr(bt.local, bt.idx, space.CtlTipSnapID), Replicated: true}
}

func (bt *BTree) refTipRoot() dyntx.Ref {
	return dyntx.Ref{Ptr: ctlPtr(bt.local, bt.idx, space.CtlTipRoot), Replicated: true}
}

func (bt *BTree) refNextSnap() dyntx.Ref {
	return dyntx.Ref{Ptr: ctlPtr(bt.local, bt.idx, space.CtlNextSnapID), Replicated: true}
}

func (bt *BTree) refLowestSnap() dyntx.Ref {
	return dyntx.Ref{Ptr: ctlPtr(bt.local, bt.idx, space.CtlLowestSnap), Replicated: true}
}

func refNode(p Ptr) dyntx.Ref { return dyntx.Ref{Ptr: p} }

func (bt *BTree) refSeq(p Ptr) dyntx.Ref {
	return dyntx.Ref{Ptr: sinfonia.Ptr{Node: bt.local, Addr: space.SeqTableAddr(p)}, Replicated: true}
}

// --- tip snapshot cache ---------------------------------------------------

// loadTip returns the cached tip state, fetching it from the local replica
// on a cold or invalidated cache.
func (bt *BTree) loadTip() (tipState, error) {
	bt.tipMu.Lock()
	defer bt.tipMu.Unlock()
	if bt.tip.valid {
		return bt.tip, nil
	}
	res, err := bt.c.Exec(&sinfonia.Minitx{Reads: []sinfonia.ReadItem{
		{Node: bt.local, Addr: space.TreeCtlAddr(bt.idx) + space.CtlTipSnapID},
		{Node: bt.local, Addr: space.TreeCtlAddr(bt.idx) + space.CtlTipRoot},
	}})
	if err != nil {
		return tipState{}, err
	}
	bt.tip = tipState{
		valid:   true,
		sid:     decodeU64(res.Reads[0].Data),
		sidVer:  res.Reads[0].Version,
		root:    decodePtr(res.Reads[1].Data),
		rootVer: res.Reads[1].Version,
		sidImg:  res.Reads[0].Data,
		rootImg: res.Reads[1].Data,
	}
	return bt.tip, nil
}

// invalidateTip drops the cached tip state; the next operation refetches it.
func (bt *BTree) invalidateTip() {
	bt.tipMu.Lock()
	bt.tip.valid = false
	bt.tipMu.Unlock()
}

// tipSid is the version id that addresses "the tip" in every addressed
// entry point: the single writable version of a linear tree, the mainline's
// current writable version (first-branch chain from the initial snapshot) of
// a branching one. Real snapshot ids start at initialSnapID.
const tipSid = 0

// target is a resolved version: what an operation needs to run against one
// version of the tree, whichever format the tree keeps its roots in.
type target struct {
	sid  uint64
	root Ptr // as of the transaction's own pending writes
	// rootRef is the replicated cell that holds the root: the tip-root cell
	// of a linear tree, the version's catalog slot of a branching one.
	rootRef dyntx.Ref
	// validate is set for writable versions: leaves join the read set and
	// the root cell is validated at commit. Frozen versions are read with
	// dirty traversals alone (§4.2) and reject writes.
	validate bool
	ent      catalog.Entry // branching: the slot's entry, re-encoded by setRoot
	// anc memoizes isAncestor for sid; nil: ask the catalog every time.
	anc map[uint64]bool
}

// snapTarget addresses a frozen snapshot by its handle; no resolution (and no
// catalog) is involved.
func snapTarget(s Snapshot) target { return target{sid: s.Sid, root: s.Root} }

// resolve turns a version id into a target inside t, adding the cells that
// make the version current to t's read set (§4.1): the proxy's cached tip id
// and root location on a linear tree, the version's catalog slot on a
// branching one. Replication makes their validation local to whichever
// memnode the commit engages. Once t holds the cells they are read back
// through t, so a later operation of the same transaction sees the root (or
// the freeze) an earlier one left pending. tipSid resolves the tip first; a
// concurrent branch that freezes it between the two lookups returns
// ErrRetry, so the retry loop re-resolves (the paper's default retry rule,
// §5.1) and only explicitly addressed writes ever see ErrNotWritable.
func (bt *BTree) resolve(t *dyntx.Txn, sid uint64) (target, error) {
	if !bt.cfg.Branching {
		if sid != tipSid {
			return target{}, ErrNotBranching
		}
		idRef, rootRef := bt.refTipID(), bt.refTipRoot()
		tg := target{rootRef: rootRef, validate: true}
		id, idHeld := t.Held(idRef)
		root, rootHeld := t.Held(rootRef)
		if idHeld && rootHeld {
			tg.sid, tg.root = decodeU64(id.Data), decodePtr(root.Data)
		} else {
			tip, err := bt.loadTip()
			if err != nil {
				return target{}, err
			}
			t.InjectRead(idRef, tip.sidVer, tip.sidImg, true)
			t.InjectRead(rootRef, tip.rootVer, tip.rootImg, true)
			tg.sid, tg.root = tip.sid, tip.root
		}
		return tg, nil
	}
	tip := sid == tipSid
	var err error
	if tip {
		if sid, err = bt.ResolveTip(initialSnapID); err != nil {
			return target{}, err
		}
	}
	ref := bt.cat.Ref(sid)
	var ent catalog.Entry
	if obj, held := t.Held(ref); held {
		if ent, err = catalog.Decode(obj.Data); err != nil {
			return target{}, dyntx.ErrRetry
		}
	} else if ent, err = bt.cat.Get(sid); err != nil {
		return target{}, err
	}
	if !ent.Writable() {
		if tip {
			return target{}, dyntx.ErrRetry
		}
		return target{sid: sid, root: ent.Root, ent: ent}, nil
	}
	t.InjectRead(ref, ent.Version, catalog.Encode(ent), true) // no-op once t holds the slot
	return target{sid: sid, root: ent.Root, rootRef: ref, validate: true, ent: ent}, nil
}

// setRoot records a new root for writable target tg after root growth. The
// cell is already in the read set (resolve), so the write validates against
// the version observed at operation start. Updating a replicated cell engages
// every memnode, which is why root splits are rare-but-heavy events in both
// the paper and this code.
func (bt *BTree) setRoot(t *dyntx.Txn, tg *target, root Ptr) {
	tg.root = root
	if bt.cfg.Branching {
		tg.ent.Root = root
		t.Write(tg.rootRef, catalog.Encode(tg.ent))
	} else {
		t.Write(tg.rootRef, encodePtr(root))
	}
	// The proxy's cached root is now stale regardless of commit outcome;
	// refetch lazily.
	bt.invalidateRoot(tg.sid)
}

// invalidateRoot drops the proxy's cached root location of version sid (the
// tip cache and the catalog entry; whichever the tree does not use is empty).
func (bt *BTree) invalidateRoot(sid uint64) {
	bt.invalidateTip()
	bt.cat.Invalidate(sid)
}

// handleStale reacts to a validation failure: it invalidates whatever proxy
// state the failed refs correspond to (tip cache, node cache, catalog
// entries) so the retry observes fresh data.
func (bt *BTree) handleStale(err error) {
	var se *dyntx.StaleError
	if !errors.As(err, &se) {
		return
	}
	ctlBase := space.TreeCtlAddr(bt.idx)
	for _, ref := range se.Refs {
		a := ref.Ptr.Addr
		switch {
		case a >= ctlBase && a < ctlBase+space.TreeDirStride:
			bt.invalidateTip()
		case a >= space.CatalogBase && a < space.SeqTableBase:
			bt.cat.Invalidate(uint64((a - space.CatalogAddr(bt.idx, 0)) / space.CatalogStride))
		case a >= space.SeqTableBase:
			// Legacy seq-table entry: recover the node pointer from the
			// address and invalidate just that node's cache entry.
			if p, ok := space.SeqTableAddrInverse(a); ok {
				bt.cache.invalidate(p)
			}
		default:
			bt.cache.invalidate(ref.Ptr)
		}
	}
}

// run is RunMulti over this one tree.
func (bt *BTree) run(fn func(t *dyntx.Txn) error) error {
	return RunMulti(bt.c, []*BTree{bt}, fn)
}

// RunMulti executes fn in dyntx.Run, the one optimistic retry loop, and
// hooks every attempt: a validation failure invalidates whatever proxy caches
// went stale before the retry, and the attempt, committed or discarded, is
// charged to each tree's counters. fn may span several trees (the paper's
// multi-index transactions, §6.2 "Scalability for multi-index
// transactions"), which must share the Sinfonia client c.
func RunMulti(c *sinfonia.Client, trees []*BTree, fn func(t *dyntx.Txn) error) error {
	return dyntx.Run(c, dyntx.RunOptions{AfterAttempt: func(t *dyntx.Txn, attempt int, err error) {
		for _, bt := range trees {
			bt.rts.Add(int64(t.Roundtrips))
			if attempt > 0 {
				bt.retries.Add(1)
			}
			if err == nil {
				bt.ops.Add(1)
			} else {
				bt.handleStale(err)
			}
		}
	}}, fn)
}

// allocNodeOn reserves a node block for a write buffered in t, returning it
// to the allocator if the attempt is later discarded.
func (bt *BTree) allocNodeOn(t *dyntx.Txn, node sinfonia.NodeID) (Ptr, error) {
	p, err := bt.al.AllocOn(node)
	if err != nil {
		return Ptr{}, err
	}
	t.OnDiscard(func() { _ = bt.al.Free(p) })
	return p, nil
}

// allocNode is allocNodeOn with round-robin placement.
func (bt *BTree) allocNode(t *dyntx.Txn) (Ptr, error) {
	p, err := bt.al.Alloc()
	if err != nil {
		return Ptr{}, err
	}
	t.OnDiscard(func() { _ = bt.al.Free(p) })
	return p, nil
}
