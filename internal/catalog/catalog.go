// Package catalog implements the snapshot catalog of Minuet's branching
// version trees (§5.1): per-snapshot metadata — root location, parent
// snapshot, first branch (branch id), child count — kept in Sinfonia and
// consulted by every up-to-date operation on a branch.
//
// The paper stores the catalog in a dedicated B-tree whose *leaves are
// replicated across all memnodes* and cached at proxies, so that validating
// a snapshot's branch id commits locally. Catalog access is always a point
// lookup by snapshot id, so this implementation uses the equivalent
// fixed-slot layout: the entry for snapshot s of tree t is a replicated item
// at space.CatalogAddr(t, s) — written atomically on every memnode when a
// snapshot or branch is created, read and validated at whichever memnode a
// transaction already engages, and cached at proxies. The cost structure is
// identical to the paper's replicated leaves (docs/ARCHITECTURE.md, "What
// stays format-specific").
package catalog

import (
	"fmt"
	"sync"

	"minuet/internal/dyntx"
	"minuet/internal/sinfonia"
	"minuet/internal/space"
	"minuet/internal/wire"
)

const entryMagic byte = 0xCA

// Entry is a snapshot's catalog record. Sid, Root, Parent, and Depth are
// immutable once written; BranchID mutates once (0 → first branch) and
// NumChildren grows up to the version tree's branching bound β.
type Entry struct {
	Sid         uint64
	Root        sinfonia.Ptr
	Parent      uint64 // 0 = root of the version tree
	BranchID    uint64 // first branch created from this snapshot; 0 = none (writable)
	NumChildren uint8
	Depth       uint32 // depth in the version tree (root snapshot = 0)

	// Version is the catalog item's version at the local replica when the
	// entry was fetched; up-to-date operations inject it into their read
	// set to validate that the snapshot is still writable.
	Version uint64
}

// Writable reports whether the snapshot is a tip (no branch created yet).
func (e Entry) Writable() bool { return e.BranchID == 0 }

// Encode serializes an entry for storage.
func Encode(e Entry) []byte {
	w := wire.NewBuffer(48)
	w.U8(entryMagic)
	w.U64(e.Sid)
	w.U32(uint32(e.Root.Node))
	w.U64(uint64(e.Root.Addr))
	w.U64(e.Parent)
	w.U64(e.BranchID)
	w.U8(e.NumChildren)
	w.U32(e.Depth)
	return w.Bytes()
}

// Decode deserializes an entry.
func Decode(data []byte) (Entry, error) {
	r := wire.NewReader(data)
	if r.U8() != entryMagic {
		return Entry{}, fmt.Errorf("catalog: bad entry magic")
	}
	var e Entry
	e.Sid = r.U64()
	e.Root.Node = sinfonia.NodeID(int32(r.U32()))
	e.Root.Addr = sinfonia.Addr(r.U64())
	e.Parent = r.U64()
	e.BranchID = r.U64()
	e.NumChildren = r.U8()
	e.Depth = r.U32()
	if err := r.Err(); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// Catalog is a proxy-side view of one tree's snapshot catalog. Immutable
// fields are cached forever; mutable fields (BranchID, NumChildren) are
// refreshed on demand. Safe for concurrent use.
type Catalog struct {
	c       *sinfonia.Client
	treeIdx int
	local   sinfonia.NodeID

	mu      sync.RWMutex
	entries map[uint64]Entry // guarded by mu
}

// New returns a catalog view reading from the given preferred replica.
func New(c *sinfonia.Client, treeIdx int, local sinfonia.NodeID) *Catalog {
	return &Catalog{c: c, treeIdx: treeIdx, local: local, entries: make(map[uint64]Entry)}
}

// Ref returns the dyntx reference of a snapshot's catalog slot (replicated).
func (cat *Catalog) Ref(sid uint64) dyntx.Ref {
	return dyntx.Ref{
		Ptr:        sinfonia.Ptr{Node: cat.local, Addr: space.CatalogAddr(cat.treeIdx, sid)},
		Replicated: true,
	}
}

// Get returns the catalog entry for sid, from cache when available.
func (cat *Catalog) Get(sid uint64) (Entry, error) {
	cat.mu.RLock()
	e, ok := cat.entries[sid]
	cat.mu.RUnlock()
	if ok {
		return e, nil
	}
	return cat.Refresh(sid)
}

// Refresh fetches sid's entry from the local replica, updating the cache.
func (cat *Catalog) Refresh(sid uint64) (Entry, error) {
	res, err := cat.c.Read(sinfonia.Ptr{Node: cat.local, Addr: space.CatalogAddr(cat.treeIdx, sid)})
	if err != nil {
		return Entry{}, err
	}
	if !res.Exists {
		return Entry{}, fmt.Errorf("catalog: snapshot %d does not exist", sid)
	}
	e, err := Decode(res.Data)
	if err != nil {
		return Entry{}, err
	}
	e.Version = res.Version
	cat.mu.Lock()
	cat.entries[sid] = e
	cat.mu.Unlock()
	return e, nil
}

// Invalidate drops sid from the cache.
func (cat *Catalog) Invalidate(sid uint64) {
	cat.mu.Lock()
	delete(cat.entries, sid)
	cat.mu.Unlock()
}

// IsAncestorOrSelf reports whether snapshot a is an ancestor of (or equal
// to) snapshot b in the version tree. Uses the immutable Parent/Depth
// fields, so cached entries are always safe.
func (cat *Catalog) IsAncestorOrSelf(a, b uint64) (bool, error) {
	if a == b {
		return true, nil
	}
	ea, err := cat.Get(a)
	if err != nil {
		return false, err
	}
	cur := b
	for {
		ec, err := cat.Get(cur)
		if err != nil {
			return false, err
		}
		if ec.Depth <= ea.Depth {
			return cur == a, nil
		}
		if ec.Parent == 0 {
			return false, nil
		}
		cur = ec.Parent
	}
}

// LCA returns the lowest common ancestor of snapshots a and b.
func (cat *Catalog) LCA(a, b uint64) (uint64, error) {
	ea, err := cat.Get(a)
	if err != nil {
		return 0, err
	}
	eb, err := cat.Get(b)
	if err != nil {
		return 0, err
	}
	for ea.Depth > eb.Depth {
		if ea, err = cat.Get(ea.Parent); err != nil {
			return 0, err
		}
	}
	for eb.Depth > ea.Depth {
		if eb, err = cat.Get(eb.Parent); err != nil {
			return 0, err
		}
	}
	for ea.Sid != eb.Sid {
		if ea.Parent == 0 || eb.Parent == 0 {
			return 0, fmt.Errorf("catalog: %d and %d share no ancestor", a, b)
		}
		if ea, err = cat.Get(ea.Parent); err != nil {
			return 0, err
		}
		if eb, err = cat.Get(eb.Parent); err != nil {
			return 0, err
		}
	}
	return ea.Sid, nil
}

// ChildToward returns the direct child c of ancestor a such that c is an
// ancestor-or-self of descendant d. Used to group redirect entries by child
// subtree when enforcing the descendant-set bound (§5.2).
func (cat *Catalog) ChildToward(a, d uint64) (uint64, error) {
	if a == d {
		return 0, fmt.Errorf("catalog: %d is not a strict descendant of %d", d, a)
	}
	cur := d
	for {
		e, err := cat.Get(cur)
		if err != nil {
			return 0, err
		}
		if e.Parent == a {
			return cur, nil
		}
		if e.Parent == 0 {
			return 0, fmt.Errorf("catalog: %d is not a descendant of %d", d, a)
		}
		cur = e.Parent
	}
}
