// Package core implements the paper's primary contribution: a distributed,
// main-memory, multiversion B-tree built on dynamic transactions over
// Sinfonia, with
//
//   - dirty-read traversals guarded by fence keys (§3, Fig 5), which shrink
//     the read set of most operations to a single leaf and eliminate the
//     replicated sequence-number table of Aguilera et al.;
//   - copy-on-write snapshots with strict serializability (§4, Figs 4/6),
//     shared through a snapshot creation service with borrowing (§4.3,
//     Fig 7) and reclaimed by a watermark garbage collector (§4.4);
//   - writable clones / branching versions with bounded descendant sets and
//     discretionary copy-on-write (§5);
//   - a legacy compatibility mode (dirty traversals OFF + replicated
//     sequence numbers) reproducing the prior system as the Fig 10 baseline.
package core

import (
	"errors"
	"fmt"
	"sort"

	"minuet/internal/sinfonia"
	"minuet/internal/wire"
)

// Ptr locates a B-tree node in the cluster.
type Ptr = sinfonia.Ptr

// NoSnap is the sentinel "no snapshot" value for Node.Copied.
const NoSnap = ^uint64(0)

// nodeMagic tags encoded nodes so traversals can detect reads of
// non-node data (stale pointers into reused blocks).
const nodeMagic byte = 0xB7

// Redirect records that this node's state was copied to snapshot Sid at
// location Ptr (branching mode, §5.2). Traversals at a snapshot descending
// from Sid must follow the redirect.
type Redirect struct {
	Sid uint64
	Ptr Ptr
}

// Node is the in-memory form of a B-tree node. A decoded Node must be
// treated as immutable: the proxy cache shares decoded nodes between
// operations. Mutating paths work on copies produced by clone().
type Node struct {
	Tree    uint16 // owning tree's directory index (for GC attribution)
	Height  uint8  // 0 = leaf
	Created uint64 // snapshot id at which this node was created
	// Copied is the snapshot id to which this node was copied (linear
	// mode), or NoSnap. Each node is copied at most once in linear mode.
	Copied uint64
	// Redirects holds up to β (snapshot, location) copies in branching
	// mode.
	Redirects []Redirect

	// Fence keys (§3): the key range this node is responsible for, whether
	// or not the keys are present.
	Low, High wire.Fence

	Keys []wire.Key
	Vals [][]byte // leaves only; parallel to Keys
	Kids []Ptr    // internal only; len(Kids) == len(Keys)+1
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Height == 0 }

// clone returns a deep-enough copy for mutation: slices are copied, but key
// and value byte strings are shared (they are never mutated in place).
func (n *Node) clone() *Node {
	c := &Node{
		Tree:    n.Tree,
		Height:  n.Height,
		Created: n.Created,
		Copied:  n.Copied,
		Low:     n.Low,
		High:    n.High,
	}
	c.Redirects = append([]Redirect(nil), n.Redirects...)
	c.Keys = append([]wire.Key(nil), n.Keys...)
	if n.Vals != nil {
		c.Vals = append([][]byte(nil), n.Vals...)
	}
	if n.Kids != nil {
		c.Kids = append([]Ptr(nil), n.Kids...)
	}
	return c
}

// inRange reports whether key k lies within the node's fences:
// low ≤ k < high for internal consistency with child ranges, except that
// the rightmost node accepts k ≤ high = +inf implicitly.
func (n *Node) inRange(k wire.Key) bool {
	// k must be ≥ Low and < High (High is exclusive except +inf).
	// Fence.CompareKey(k) orders k against the fence: <0 ⇔ k < fence.
	if n.Low.CompareKey(k) < 0 { // k < low
		return false
	}
	if n.High.IsPosInf() {
		return true
	}
	return n.High.CompareKey(k) < 0 // k < high
}

// childIndex returns the index of the child responsible for key k.
func (n *Node) childIndex(k wire.Key) int {
	// First key strictly greater than k determines the child slot.
	return sort.Search(len(n.Keys), func(i int) bool {
		return wire.CompareKeys(k, n.Keys[i]) < 0
	})
}

// search finds k in a leaf, returning its index and whether it is present.
func (n *Node) search(k wire.Key) (int, bool) {
	i := sort.Search(len(n.Keys), func(i int) bool {
		return wire.CompareKeys(n.Keys[i], k) >= 0
	})
	return i, i < len(n.Keys) && wire.CompareKeys(n.Keys[i], k) == 0
}

// childFences computes the fence keys of the i-th child.
func (n *Node) childFences(i int) (low, high wire.Fence) {
	low = n.Low
	if i > 0 {
		low = wire.FenceAt(n.Keys[i-1])
	}
	high = n.High
	if i < len(n.Keys) {
		high = wire.FenceAt(n.Keys[i])
	}
	return low, high
}

// Header field offsets within an encoded node. The garbage collector reads
// only this fixed-size prefix (see gc.go).
const (
	hdrMagic = 0
	// HeaderLen is the length of the fixed prefix (magic, tree, height,
	// created, copied).
	HeaderLen = 20
)

// hasRedirects reports whether an encoded node carries any redirects (the
// count byte follows the fixed header), sparing a decode to find out.
func hasRedirects(data []byte) bool {
	return len(data) > HeaderLen && data[hdrMagic] == nodeMagic && data[HeaderLen] != 0
}

// encode serializes the node.
func (n *Node) encode() []byte {
	w := wire.NewBuffer(128 + 32*len(n.Keys))
	w.U8(nodeMagic)
	w.U16(n.Tree)
	w.U8(n.Height)
	w.U64(n.Created)
	w.U64(n.Copied)
	w.U8(uint8(len(n.Redirects)))
	for _, r := range n.Redirects {
		w.U64(r.Sid)
		w.U32(uint32(r.Ptr.Node))
		w.U64(uint64(r.Ptr.Addr))
	}
	w.Fence(n.Low)
	w.Fence(n.High)
	w.U16(uint16(len(n.Keys)))
	for _, k := range n.Keys {
		w.Bytes16(k)
	}
	if n.IsLeaf() {
		for _, v := range n.Vals {
			w.Bytes16(v)
		}
	} else {
		for _, p := range n.Kids {
			w.U32(uint32(p.Node))
			w.U64(uint64(p.Addr))
		}
	}
	return w.Bytes()
}

// errNotANode reports decoding something that is not a node (e.g. a stale
// pointer into a reused or freed block). Traversals treat it like any other
// dirty-read inconsistency: abort and retry.
var errNotANode = errors.New("core: data is not a B-tree node")

// decodeNode deserializes a node; it returns errNotANode for malformed
// input rather than panicking, because dirty traversals may legitimately
// read garbage.
func decodeNode(data []byte) (*Node, error) {
	if len(data) < HeaderLen || data[hdrMagic] != nodeMagic {
		return nil, errNotANode
	}
	r := wire.NewReader(data)
	n := &Node{}
	if r.U8() != nodeMagic {
		return nil, errNotANode
	}
	n.Tree = r.U16()
	n.Height = r.U8()
	n.Created = r.U64()
	n.Copied = r.U64()
	nr := int(r.U8())
	if nr > 64 {
		return nil, errNotANode
	}
	for i := 0; i < nr; i++ {
		rd := Redirect{Sid: r.U64()}
		rd.Ptr.Node = sinfonia.NodeID(int32(r.U32()))
		rd.Ptr.Addr = sinfonia.Addr(r.U64())
		n.Redirects = append(n.Redirects, rd)
	}
	n.Low = r.Fence()
	n.High = r.Fence()
	nk := int(r.U16())
	if nk > 1<<15 {
		return nil, errNotANode
	}
	n.Keys = make([]wire.Key, nk)
	for i := 0; i < nk; i++ {
		n.Keys[i] = r.Bytes16()
	}
	if n.IsLeaf() {
		n.Vals = make([][]byte, nk)
		for i := 0; i < nk; i++ {
			n.Vals[i] = r.Bytes16()
		}
	} else {
		n.Kids = make([]Ptr, nk+1)
		for i := 0; i <= nk; i++ {
			n.Kids[i].Node = sinfonia.NodeID(int32(r.U32()))
			n.Kids[i].Addr = sinfonia.Addr(r.U64())
		}
	}
	if r.Err() != nil {
		return nil, errNotANode
	}
	return n, nil
}

// HeaderInfo is the decoded fixed prefix of a node, used by the garbage
// collector.
type HeaderInfo struct {
	Tree    uint16
	Height  uint8
	Created uint64
	Copied  uint64
}

// DecodeHeader decodes just the fixed-size node header from a data prefix.
func DecodeHeader(prefix []byte) (HeaderInfo, bool) {
	if len(prefix) < HeaderLen || prefix[hdrMagic] != nodeMagic {
		return HeaderInfo{}, false
	}
	r := wire.NewReader(prefix)
	r.U8() // magic
	h := HeaderInfo{Tree: r.U16(), Height: r.U8(), Created: r.U64(), Copied: r.U64()}
	return h, r.Err() == nil
}

func (n *Node) String() string {
	kind := "leaf"
	if !n.IsLeaf() {
		kind = fmt.Sprintf("inner(h=%d)", n.Height)
	}
	return fmt.Sprintf("%s created=%d copied=%d keys=%d [%s,%s)", kind, n.Created, int64(n.Copied), len(n.Keys), n.Low, n.High)
}
