// Package alloc implements Minuet's distributed memory allocator (§2.3):
// the component that decides where B-tree nodes are placed. Its state — a
// bump pointer and a free list per memnode — lives *inside* Sinfonia's
// address space and is manipulated with minitransactions, so the allocator
// is itself a distributed data structure that multiple proxies share safely.
//
// Placement is round-robin across memnodes, which balances both storage and
// load (uniformly random keys touch leaves uniformly). To keep allocation
// off the critical path, each proxy reserves extents of blocks with a single
// compare-and-swap minitransaction and then sub-allocates locally.
//
// Freed blocks (from snapshot garbage collection) are pushed onto the owning
// memnode's free list and are preferred over fresh extents on reuse.
package alloc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"minuet/internal/sinfonia"
	"minuet/internal/space"
)

// Allocator hands out fixed-size blocks on the cluster's memnodes. It is
// safe for concurrent use by many goroutines within one proxy; separate
// proxies each run their own Allocator against the same shared state.
type Allocator struct {
	c            *sinfonia.Client
	blockSize    uint64
	extentBlocks uint64

	mu      sync.Mutex
	extents map[sinfonia.NodeID]*extent
	rr      int

	allocs int64
	frees  int64
}

type extent struct {
	next sinfonia.Addr
	end  sinfonia.Addr
}

// New returns an allocator that carves blockSize-byte blocks out of each
// memnode's dynamic region, reserving extentBlocks blocks per bump-pointer
// CAS. blockSize is typically the B-tree node size (4 KiB in the paper).
func New(c *sinfonia.Client, blockSize, extentBlocks int) *Allocator {
	if blockSize <= 0 || extentBlocks <= 0 {
		panic("alloc: blockSize and extentBlocks must be positive")
	}
	return &Allocator{
		c:            c,
		blockSize:    uint64(blockSize),
		extentBlocks: uint64(extentBlocks),
		extents:      make(map[sinfonia.NodeID]*extent),
	}
}

// BlockSize returns the allocator's block size.
func (a *Allocator) BlockSize() int { return int(a.blockSize) }

// Alloc reserves one block on a memnode chosen round-robin.
func (a *Allocator) Alloc() (sinfonia.Ptr, error) {
	a.mu.Lock()
	nodes := a.c.Nodes()
	node := nodes[a.rr%len(nodes)]
	a.rr++
	a.mu.Unlock()
	return a.AllocOn(node)
}

// AllocOn reserves one block on the given memnode. Freed blocks are reused
// before fresh extents are carved.
func (a *Allocator) AllocOn(node sinfonia.NodeID) (sinfonia.Ptr, error) {
	// Fast path: sub-allocate from the proxy's cached extent.
	a.mu.Lock()
	if e, ok := a.extents[node]; ok && e.next < e.end {
		p := sinfonia.Ptr{Node: node, Addr: e.next}
		e.next += sinfonia.Addr(a.blockSize)
		a.allocs++
		a.mu.Unlock()
		return p, nil
	}
	a.mu.Unlock()

	// Try the shared free list first.
	if p, ok, err := a.popFree(node); err != nil {
		return sinfonia.NilPtr, err
	} else if ok {
		a.mu.Lock()
		a.allocs++
		a.mu.Unlock()
		return p, nil
	}

	// Carve a fresh extent from the bump pointer.
	start, err := a.bumpExtent(node)
	if err != nil {
		return sinfonia.NilPtr, err
	}
	a.mu.Lock()
	a.extents[node] = &extent{
		next: start + sinfonia.Addr(a.blockSize),
		end:  start + sinfonia.Addr(a.blockSize*a.extentBlocks),
	}
	a.allocs++
	a.mu.Unlock()
	return sinfonia.Ptr{Node: node, Addr: start}, nil
}

// ErrContended reports that an allocator compare-and-swap kept losing to
// other proxies for the whole sinfonia.RetryBudget.
var ErrContended = errors.New("alloc: compare-and-swap lost for the whole retry budget")

// retryCAS runs step, one read-then-compare-and-swap of an allocator cell,
// until it does not lose the race, waiting on one Backoff between tries.
func (a *Allocator) retryCAS(cell sinfonia.Ptr, step func() error) error {
	b := a.c.Backoff()
	for {
		err := step()
		if !sinfonia.IsCompareFailed(err) {
			return err
		}
		// Another proxy changed the cell first; re-read and retry.
		if !b.Wait() {
			return fmt.Errorf("%w: cell %v, %v", ErrContended, cell, b.Elapsed().Round(time.Millisecond))
		}
	}
}

// bumpExtent atomically advances node's bump pointer by one extent and
// returns the extent's first block address.
func (a *Allocator) bumpExtent(node sinfonia.NodeID) (start sinfonia.Addr, err error) {
	bump := sinfonia.Ptr{Node: node, Addr: space.BumpAddr}
	err = a.retryCAS(bump, func() error {
		cur, err := a.c.Read(bump)
		if err != nil {
			return err
		}
		start = space.DynamicBase
		if cur.Exists {
			start = sinfonia.Addr(binary.LittleEndian.Uint64(cur.Data))
		}
		next := start + sinfonia.Addr(a.blockSize*a.extentBlocks)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(next))
		_, err = a.c.Exec(&sinfonia.Minitx{
			Compares: []sinfonia.CompareItem{{
				Node: node, Addr: space.BumpAddr,
				Kind: sinfonia.CompareVersion, Version: cur.Version,
			}},
			Writes: []sinfonia.WriteItem{{Node: node, Addr: space.BumpAddr, Data: buf[:]}},
		})
		return err
	})
	return start, err
}

// popFree pops one block from node's free list. ok is false when the list
// is empty.
func (a *Allocator) popFree(node sinfonia.NodeID) (p sinfonia.Ptr, ok bool, err error) {
	head := sinfonia.Ptr{Node: node, Addr: space.FreeHeadAddr}
	err = a.retryCAS(head, func() error {
		cur, err := a.c.Read(head)
		if err != nil {
			return err
		}
		var first sinfonia.Addr
		if cur.Exists && len(cur.Data) >= 8 {
			first = sinfonia.Addr(binary.LittleEndian.Uint64(cur.Data))
		}
		if first == 0 {
			return nil
		}
		// Read the next pointer stored in the free block itself. The head
		// version comparison below makes the pop atomic: if another proxy
		// popped concurrently, the comparison fails and we retry.
		blk, err := a.c.Read(sinfonia.Ptr{Node: node, Addr: first})
		if err != nil {
			return err
		}
		var next sinfonia.Addr
		if blk.Exists && len(blk.Data) >= 8 {
			next = sinfonia.Addr(binary.LittleEndian.Uint64(blk.Data))
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(next))
		_, err = a.c.Exec(&sinfonia.Minitx{
			Compares: []sinfonia.CompareItem{{
				Node: node, Addr: space.FreeHeadAddr,
				Kind: sinfonia.CompareVersion, Version: cur.Version,
			}},
			Writes: []sinfonia.WriteItem{{Node: node, Addr: space.FreeHeadAddr, Data: buf[:]}},
		})
		if err == nil {
			p, ok = sinfonia.Ptr{Node: node, Addr: first}, true
		}
		return err
	})
	return p, ok, err
}

// Free pushes a block onto its memnode's free list. The block's contents
// are overwritten with the list link.
func (a *Allocator) Free(p sinfonia.Ptr) error {
	if p.IsNil() {
		return fmt.Errorf("alloc: freeing nil pointer")
	}
	head := sinfonia.Ptr{Node: p.Node, Addr: space.FreeHeadAddr}
	err := a.retryCAS(head, func() error {
		cur, err := a.c.Read(head)
		if err != nil {
			return err
		}
		var first sinfonia.Addr
		if cur.Exists && len(cur.Data) >= 8 {
			first = sinfonia.Addr(binary.LittleEndian.Uint64(cur.Data))
		}
		var link, newHead [8]byte
		binary.LittleEndian.PutUint64(link[:], uint64(first))
		binary.LittleEndian.PutUint64(newHead[:], uint64(p.Addr))
		_, err = a.c.Exec(&sinfonia.Minitx{
			Compares: []sinfonia.CompareItem{{
				Node: p.Node, Addr: space.FreeHeadAddr,
				Kind: sinfonia.CompareVersion, Version: cur.Version,
			}},
			Writes: []sinfonia.WriteItem{
				{Node: p.Node, Addr: space.FreeHeadAddr, Data: newHead[:]},
				{Node: p.Node, Addr: p.Addr, Data: link[:]},
			},
		})
		return err
	})
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.frees++
	a.mu.Unlock()
	return nil
}

// Stats reports allocation counters for this proxy's allocator.
func (a *Allocator) Stats() (allocs, frees int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.allocs, a.frees
}
