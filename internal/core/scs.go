package core

import "time"

// SCS is the snapshot creation service of §4.3 (Fig 7). All snapshot
// requests for a tree are routed to one SCS instance, which serializes
// snapshot creation (eliminating contention on the replicated tip id) and
// lets concurrent requests *borrow* a snapshot created while they waited —
// which is safe for strict serializability precisely because the borrowed
// snapshot was created after the borrower's request began.
//
// MinInterval implements the staleness knob of §6.3: when set to k > 0, at
// most one snapshot is created every k interval and later requests reuse the
// most recent one. That mode trades strict serializability for ordinary
// serializability with bounded staleness, exactly as the paper describes.
type SCS struct {
	bt *BTree

	// AllowBorrow enables Fig 7 borrowing (on by default; Fig 15's
	// "no borrowed snapshots" series turns it off).
	AllowBorrow bool
	// MinInterval is the minimum time, on the netsim clock, between snapshot
	// creations ("k"). Zero means every non-borrowed request creates a fresh
	// snapshot.
	MinInterval time.Duration

	b borrower
}

// NewSCS returns a snapshot creation service for tree bt.
func NewSCS(bt *BTree) *SCS {
	return &SCS{bt: bt, AllowBorrow: true}
}

// Create returns a snapshot id and root location, either by creating a new
// snapshot or by borrowing one created during this request's wait (Fig 7).
// borrowed reports which happened. A request that reuses the most recent
// snapshot under MinInterval counts as borrowed too; that reuse is not
// strictly serializable — the caller opted into up to k staleness.
func (s *SCS) Create() (snap Snapshot, borrowed bool, err error) {
	return s.b.get(s.AllowBorrow, s.MinInterval, s.bt.CreateSnapshot)
}

// Counters reports how many snapshots were created vs. borrowed.
func (s *SCS) Counters() (created, borrowed int64) {
	return s.b.acquired.Load(), s.b.borrowed.Load()
}
