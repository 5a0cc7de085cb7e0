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
	"bytes"
	"errors"
	"fmt"
	"math"

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

// Node is the mutable form of a B-tree node: what the write paths build,
// edit and encode. A Node is private to the operation that made it — reads
// work on a nodeView of the encoded image and materialize a Node only when
// they must write — so its slices may be edited freely. The key and value
// byte strings they point at are shared with the image (or with the caller's
// batch) and are never modified in place.
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

// search finds k in a leaf under edit, returning the index of the first key
// ≥ k and whether that key is k.
func (n *Node) search(k wire.Key) (int, bool) {
	lo, hi := 0, len(n.Keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bytes.Compare(n.Keys[m], k) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(n.Keys) && bytes.Equal(n.Keys[lo], k)
}

// inFences reports whether key k lies within [low, high): high is exclusive
// except that +inf admits every key.
func inFences(low, high wire.Fence, k wire.Key) bool {
	// Fence.CompareKey(k) orders k against the fence: <0 ⇔ k < fence.
	if low.CompareKey(k) < 0 {
		return false
	}
	return high.IsPosInf() || high.CompareKey(k) < 0
}

// nodeView is the read form of a node: header, redirects and fences parsed
// out of an encoded image, and one pointer-free offset table over its
// records, so keys, values and child pointers are searched and read in place
// (nothing is copied out of raw). A view is immutable and shared — the proxy
// cache hands the same interior view to every operation — and so is the
// image under it: install-once at the memnode, never written at the proxy
// (docs/ARCHITECTURE.md, "Image ownership"). Write paths take a private Node
// from materialize.
type nodeView struct {
	Tree      uint16
	Height    uint8
	Created   uint64
	Copied    uint64
	Redirects []Redirect
	Low, High wire.Fence // concrete fences alias raw

	raw []byte // the image, cut to the bytes the node occupies
	nk  int    // number of keys
	// The offset table: entry i is where record i — a 2-byte length, then
	// that many bytes — starts, with one trailing entry for where the last
	// record ends. The records are the nk keys and, in a leaf, the nk values
	// after them; an interior node's fixed-width child pointers start at
	// entry nk. An image under 64 KiB (every node of default size) gets the
	// 16-bit table, half the bytes; a node grown large by long values the
	// 32-bit one.
	off16 []uint16
	off32 []uint32
}

// kidLen is the encoded size of a child pointer (memnode id, address).
const kidLen = 12

// IsLeaf reports whether the node is a leaf.
func (v *nodeView) IsLeaf() bool { return v.Height == 0 }

// len returns the number of keys.
func (v *nodeView) len() int { return v.nk }

// at returns entry i of the offset table.
func (v *nodeView) at(i int) int {
	if v.off32 != nil {
		return int(v.off32[i])
	}
	return int(v.off16[i])
}

func (v *nodeView) record(i int) []byte {
	end := v.at(i + 1)
	return v.raw[v.at(i)+2 : end : end]
}

// key returns the i-th key, aliasing the image.
func (v *nodeView) key(i int) wire.Key { return v.record(i) }

// val returns the i-th value of a leaf, aliasing the image.
func (v *nodeView) val(i int) []byte { return v.record(v.nk + i) }

// kid returns the i-th child pointer of an interior node, 0 ≤ i ≤ len().
func (v *nodeView) kid(i int) Ptr {
	return decodePtr(v.raw[v.at(v.nk)+kidLen*i:])
}

// inRange reports whether key k lies within the node's fences.
func (v *nodeView) inRange(k wire.Key) bool { return inFences(v.Low, v.High, k) }

// search finds k among the keys, returning the index of the first key ≥ k and
// whether that key is k.
func (v *nodeView) search(k wire.Key) (int, bool) {
	lo, hi := 0, v.nk
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch c := bytes.Compare(v.key(m), k); {
		case c == 0:
			return m, true
		case c < 0:
			lo = m + 1
		default:
			hi = m
		}
	}
	return lo, false
}

// childIndex returns the index of the child responsible for key k: the
// number of separators ≤ k.
func (v *nodeView) childIndex(k wire.Key) int {
	i, found := v.search(k)
	if found {
		i++
	}
	return i
}

// childFences computes the fence keys of the i-th child.
func (v *nodeView) childFences(i int) (low, high wire.Fence) {
	low = v.Low
	if i > 0 {
		low = wire.FenceAt(v.key(i - 1))
	}
	high = v.High
	if i < v.nk {
		high = wire.FenceAt(v.key(i))
	}
	return low, high
}

// materialize builds the node's mutable form. The Node's slices are fresh,
// with room for the one insert most writes make; the byte strings in them
// alias the image.
func (v *nodeView) materialize() *Node {
	n := &Node{
		Tree:      v.Tree,
		Height:    v.Height,
		Created:   v.Created,
		Copied:    v.Copied,
		Redirects: append([]Redirect(nil), v.Redirects...),
		Low:       v.Low,
		High:      v.High,
		Keys:      make([]wire.Key, v.nk, v.nk+1),
	}
	for i := range n.Keys {
		n.Keys[i] = v.key(i)
	}
	if v.IsLeaf() {
		n.Vals = make([][]byte, v.nk, v.nk+1)
		for i := range n.Vals {
			n.Vals[i] = v.val(i)
		}
	} else {
		n.Kids = make([]Ptr, v.nk+1)
		for i := range n.Kids {
			n.Kids[i] = v.kid(i)
		}
	}
	return n
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

// parseNode is the one parser of a node image. It returns errNotANode for
// malformed input rather than panicking, because dirty traversals may
// legitimately read garbage. It allocates the view and its offset table, the
// latter only once the key count is known to fit in the bytes that remain.
func parseNode(data []byte) (*nodeView, error) {
	if len(data) < HeaderLen || data[hdrMagic] != nodeMagic {
		return nil, errNotANode
	}
	r := wire.NewReader(data)
	r.U8() // magic
	v := &nodeView{Tree: r.U16(), Height: r.U8(), Created: r.U64(), Copied: r.U64()}
	nr := int(r.U8())
	if nr > 64 || nr*20 > r.Remaining() {
		return nil, errNotANode
	}
	if nr > 0 {
		v.Redirects = make([]Redirect, nr)
		for i := range v.Redirects {
			rd := &v.Redirects[i]
			rd.Sid = r.U64()
			rd.Ptr.Node = sinfonia.NodeID(int32(r.U32()))
			rd.Ptr.Addr = sinfonia.Addr(r.U64())
		}
	}
	v.Low = r.Fence()
	v.High = r.Fence()
	nk := int(r.U16())
	if r.Err() != nil {
		return nil, errNotANode
	}
	// One pass over the length prefixes fills the offset table: a leaf has a
	// record per key and per value, an interior node a record per key and
	// then nk+1 fixed-width child pointers.
	p := len(data) - r.Remaining()
	nrec, tail := 2*nk, 0
	if !v.IsLeaf() {
		nrec, tail = nk, (nk+1)*kidLen
	}
	if 2*nrec+tail > len(data)-p {
		return nil, errNotANode
	}
	if len(data) <= math.MaxUint16 {
		v.off16 = make([]uint16, nrec+1)
		p = fillOffsets(data, p, v.off16)
	} else {
		v.off32 = make([]uint32, nrec+1)
		p = fillOffsets(data, p, v.off32)
	}
	if p < 0 || p+tail > len(data) {
		return nil, errNotANode
	}
	v.raw, v.nk = data[:p+tail], nk
	return v, nil
}

// fillOffsets walks len(off)-1 length-prefixed records of data from offset p,
// noting in off where each starts and where the last ends. It returns the end
// offset, or -1 if the records run past the data.
func fillOffsets[T uint16 | uint32](data []byte, p int, off []T) int {
	last := len(off) - 1
	for i := range off[:last] {
		if uint(p+1) >= uint(len(data)) {
			return -1
		}
		off[i] = T(p)
		p += 2 + int(data[p]) + int(data[p+1])<<8
	}
	if p > len(data) {
		return -1
	}
	off[last] = T(p)
	return p
}

// decodeNode parses an image straight into its mutable form.
func decodeNode(data []byte) (*Node, error) {
	v, err := parseNode(data)
	if err != nil {
		return nil, err
	}
	return v.materialize(), nil
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
