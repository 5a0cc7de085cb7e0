// Package sinfonia implements the Sinfonia data-sharing service that Minuet
// is built on (Aguilera et al., SOSP 2007): a set of storage nodes called
// memnodes, each exporting an unstructured byte-addressable address space,
// plus an application library (Client) that executes *minitransactions*
// against them.
//
// A minitransaction can read, compare, and conditionally update data at
// multiple addresses on multiple memnodes. Updates are applied atomically
// iff every comparison succeeds. Execution uses two-phase commit, collapsed
// automatically to a single phase when only one memnode is involved — the
// property Minuet's B-tree exploits to commit most operations in one round
// trip to one server.
//
// Like the paper's deployment, memnodes keep all state in memory and
// replicate synchronously to a backup memnode; a backup can be promoted when
// its primary crashes. Replication and the optional write-ahead log are two
// sinks of one stream of redo records (redo.go).
package sinfonia

import (
	"errors"
	"fmt"

	"minuet/internal/netsim"
)

// NodeID identifies a memnode.
type NodeID = netsim.NodeID

// Addr is a location in a memnode's address space. Minuet's allocator hands
// out non-overlapping regions, so items, versions, and locks are keyed by
// the region's start address.
type Addr uint64

// Ptr names a region globally: a memnode plus an address.
type Ptr struct {
	Node NodeID
	Addr Addr
}

// NilPtr is the zero Ptr, used as "no pointer". Address 0 is reserved by the
// allocator, so no real region ever has Addr 0.
var NilPtr = Ptr{}

// IsNil reports whether p is the nil pointer.
func (p Ptr) IsNil() bool { return p == NilPtr }

func (p Ptr) String() string { return fmt.Sprintf("<%d,%#x>", p.Node, uint64(p.Addr)) }

// CompareItem is a minitransaction comparison. It succeeds when the item's
// version equals Version; a missing item has version 0. This is the only
// comparison Minuet needs, as the paper describes: "objects can be tagged
// with sequence numbers that increase monotonically on update, and
// comparisons are based solely on these sequence numbers".
type CompareItem struct {
	Node    NodeID
	Addr    Addr
	Version uint64
}

// ReadItem requests the data and version at an address.
type ReadItem struct {
	Node NodeID
	Addr Addr
}

// WriteItem is a conditional update: applied only if all comparisons in the
// minitransaction succeed.
type WriteItem struct {
	Node NodeID
	Addr Addr
	Data []byte
}

// ReadResult is the outcome of one ReadItem. Over an in-process transport
// Data is the memnode's stored image itself, not a copy: it stays valid and
// unchanged whatever is written to the address afterwards (images are
// install-once), and the receiver must treat it as read-only. The same holds
// for ItemInfo.Prefix and the images in a SnapshotStateResp.
type ReadResult struct {
	Data    []byte
	Version uint64
	Exists  bool
}

// Minitx is a minitransaction. The zero value is an empty (trivially
// successful) minitransaction; populate it and pass it to Client.Exec.
type Minitx struct {
	Compares []CompareItem
	Reads    []ReadItem
	Writes   []WriteItem

	// Blocking selects the blocking variant used to update the replicated
	// tip snapshot id (§4.1 of the Minuet paper): instead of aborting when
	// a lock is busy, the memnode waits for the lock to be released, up to
	// its own bound (blockWait).
	Blocking bool
}

// Result is the outcome of a committed minitransaction. Reads is parallel to
// Minitx.Reads.
type Result struct {
	Reads []ReadResult
}

// CompareFailedError reports which comparisons failed; indices refer to
// Minitx.Compares. The minitransaction did not apply its writes.
type CompareFailedError struct {
	Failed []int
}

func (e *CompareFailedError) Error() string {
	return fmt.Sprintf("sinfonia: %d comparison(s) failed", len(e.Failed))
}

// IsCompareFailed reports whether err is (or wraps) a CompareFailedError.
func IsCompareFailed(err error) bool {
	var cf *CompareFailedError
	return errors.As(err, &cf)
}

// ErrTooBusy is returned when a minitransaction kept meeting busy locks for
// the whole RetryBudget. The paper's library retries busy aborts
// transparently; the budget bounds how long one call may do so.
var ErrTooBusy = errors.New("sinfonia: retry budget exhausted on busy locks")

// vote is a memnode's phase-one answer.
type vote uint8

const (
	voteOK vote = iota
	voteBusy
	voteCompareFail
)

// Wire messages. These are shared by the in-process transport and the TCP
// transport (encoding/gob), so all fields are exported.

// ExecCommitReq executes a single-memnode minitransaction in one phase.
type ExecCommitReq struct {
	Txid     uint64
	Compares []CompareItem
	Reads    []ReadItem
	Writes   []WriteItem
	Blocking bool
}

// PrepareReq is phase one of a distributed minitransaction: lock the touched
// addresses, evaluate comparisons, perform reads, and stage writes.
// Participants lists every memnode in the transaction so that the recovery
// coordinator can resolve it if the proxy crashes between phases.
type PrepareReq struct {
	Txid         uint64
	Compares     []CompareItem
	Reads        []ReadItem
	Writes       []WriteItem
	Blocking     bool
	Participants []NodeID
}

// ExecResp answers ExecCommitReq and PrepareReq. Failed holds indices into
// the request's Compares slice (local to this memnode).
type ExecResp struct {
	Vote   vote
	Failed []int
	Reads  []ReadResult
}

// CommitReq is phase two (commit) of a distributed minitransaction.
type CommitReq struct{ Txid uint64 }

// AbortReq is phase two (abort) of a distributed minitransaction.
type AbortReq struct{ Txid uint64 }

// Ack is the empty successful response.
type Ack struct{}

// ScanReq asks a memnode to enumerate items in [MinAddr, MaxAddr). The
// response carries each item's address, version, and the first PrefixLen
// bytes of its data — enough for the snapshot garbage collector to decode
// node headers without the memnode knowing the B-tree format.
type ScanReq struct {
	MinAddr   Addr
	MaxAddr   Addr
	PrefixLen int
}

// ItemInfo describes one item in a ScanResp.
type ItemInfo struct {
	Addr    Addr
	Version uint64
	Prefix  []byte
}

// ScanResp answers ScanReq.
type ScanResp struct{ Items []ItemInfo }

// SnapshotStateReq asks a memnode for a full copy of its primary state
// (used when seeding a backup or transferring state between clusters).
type SnapshotStateReq struct{}

// SnapshotStateResp carries a memnode's full primary state as the redo
// records that rebuild it (state.snapshotLocked): one apply holding every
// committed item, and one stage per in-flight prepare (staged distributed
// transaction awaiting phase two). The prepares matter for double faults: a
// freshly promoted node that takes over backup duty for this memnode must
// mirror them, or a second crash would strand a transaction some participant
// already voted yes on — or, worse, drop writes the coordinator already
// decided to commit.
type SnapshotStateResp struct {
	Records []RedoRecord

	// Backup mirrors this node holds for other primaries, parallel slices
	// indexed by mirrored item. Purely observational (SeedReplica ignores
	// them); they let out-of-process tooling — the multi-process harness in
	// internal/prochost in particular — verify that replication wired over
	// real TCP actually landed, which in-process tests check by calling
	// PromoteReplica directly.
	MirrorFor      []NodeID
	MirrorAddrs    []Addr
	MirrorData     [][]byte
	MirrorVersions []uint64
}

// StatsReq asks a memnode for its counters.
type StatsReq struct{}

// StatsResp answers StatsReq.
type StatsResp struct {
	Items      int
	Commits    int64
	Aborts     int64
	BusyAborts int64
	Bytes      int64
}
