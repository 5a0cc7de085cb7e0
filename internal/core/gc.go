package core

import (
	"fmt"

	"minuet/internal/sinfonia"
	"minuet/internal/space"
)

// Snapshot garbage collection (§4.4). Minuet records a global lowest
// snapshot id — the smallest id clients may still query. A background
// process sweeps the B-tree nodes stored at each memnode and frees those
// that were copied to a snapshot at or below the watermark: such nodes can
// only be referenced by snapshots no client can reach.
//
// The sweep decodes only each node's fixed header (address, tree id,
// copied-snapshot id) from a prefix returned by the memnode, so memnodes
// stay ignorant of the B-tree format. Exactly one proxy per cluster should
// run the collector (the cluster harness designates one); the free operation
// is not idempotent.

// SetLowestSnapshot publishes the GC watermark: queries to snapshots with
// id < sid become unsupported and their exclusive state reclaimable. The
// watermark is replicated on every memnode.
func (bt *BTree) SetLowestSnapshot(sid uint64) error {
	m := &sinfonia.Minitx{}
	for _, n := range bt.c.Nodes() {
		m.Writes = append(m.Writes, sinfonia.WriteItem{
			Node: n, Addr: space.TreeCtlAddr(bt.idx) + space.CtlLowestSnap, Data: encodeU64(sid),
		})
	}
	_, err := bt.c.Exec(m)
	return err
}

// LowestSnapshot reads the current GC watermark from the local replica.
func (bt *BTree) LowestSnapshot() (uint64, error) {
	res, err := bt.c.Read(ctlPtr(bt.local, bt.idx, space.CtlLowestSnap))
	if err != nil {
		return 0, err
	}
	return decodeU64(res.Data), nil
}

// CollectGarbage sweeps every memnode and frees this tree's nodes whose
// copied-snapshot id is at or below the watermark. It returns the number of
// nodes freed. Linear (non-branching) snapshot mode only; branching trees
// would need descendant-set-aware reachability (docs/ARCHITECTURE.md, "Why GC
// is linear-only").
func (bt *BTree) CollectGarbage() (int, error) {
	if bt.cfg.Branching {
		return 0, fmt.Errorf("core: garbage collection requires linear snapshot mode")
	}
	if !bt.gcBusy.CompareAndSwap(false, true) {
		return 0, fmt.Errorf("core: a collection is already running")
	}
	defer bt.gcBusy.Store(false)

	low, err := bt.LowestSnapshot()
	if err != nil {
		return 0, err
	}
	freed := 0
	for _, node := range bt.c.Nodes() {
		items, err := bt.c.Scan(node, space.DynamicBase, space.CatalogBase, HeaderLen)
		if err != nil {
			return freed, err
		}
		for _, it := range items {
			h, ok := DecodeHeader(it.Prefix)
			if !ok || h.Tree != uint16(bt.idx) {
				continue
			}
			if h.Copied == NoSnap || h.Copied > low {
				continue
			}
			p := Ptr{Node: node, Addr: it.Addr}
			if err := bt.al.Free(p); err != nil {
				return freed, err
			}
			bt.cache.invalidate(p)
			freed++
		}
	}
	return freed, nil
}

// RunGCKeepRecent advances the watermark so that only the keepRecent most
// recent snapshots stay queryable (the paper's example policy: "always
// supporting queries over the ten most recent snapshots"), then collects.
func (bt *BTree) RunGCKeepRecent(keepRecent uint64) (int, error) {
	bt.invalidateTip()
	tip, err := bt.loadTip()
	if err != nil {
		return 0, err
	}
	var watermark uint64
	if tip.sid > keepRecent {
		watermark = tip.sid - keepRecent
	}
	low, err := bt.LowestSnapshot()
	if err != nil {
		return 0, err
	}
	if watermark > low {
		if err := bt.SetLowestSnapshot(watermark); err != nil {
			return 0, err
		}
	}
	return bt.CollectGarbage()
}
