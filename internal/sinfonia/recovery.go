package sinfonia

import (
	"fmt"
	"sync/atomic"
	"time"

	"minuet/internal/netsim"
)

// Coordinator recovery (Aguilera et al., SOSP 2007 §4): Sinfonia's
// coordinators (the proxies) are unreliable — one can crash between the
// prepare and commit phases of a distributed minitransaction, leaving its
// locks held forever. The recovery coordinator periodically sweeps
// memnodes for in-doubt transactions older than a threshold and resolves
// them with Sinfonia's rule:
//
//	commit iff every participant voted yes (is prepared or already
//	committed); abort otherwise.
//
// Aborting a transaction that some participant never prepared is always
// safe because the original coordinator cannot have committed it; and
// once recovery has aborted it at any participant, a late commit by a slow
// original coordinator must be refused — memnodes remember resolved
// outcomes for this reason.
//
// To make the decision, prepare requests carry the full participant list,
// which the memnode stores with the staged transaction.

// InDoubtReq asks a memnode for its in-doubt transactions older than
// MinAgeNanos.
type InDoubtReq struct {
	MinAgeNanos int64
}

// InDoubtInfo describes one in-doubt transaction at one memnode.
type InDoubtInfo struct {
	Txid         uint64
	Participants []NodeID
	AgeNanos     int64
}

// InDoubtResp answers InDoubtReq.
type InDoubtResp struct {
	Txns []InDoubtInfo
}

// TxnStatusReq asks a memnode about its vote/outcome for a transaction.
type TxnStatusReq struct{ Txid uint64 }

// Transaction status values.
const (
	// TxnUnknown: the memnode has no record of the transaction (it never
	// prepared, or forgot a long-resolved outcome).
	TxnUnknown uint8 = iota
	// TxnPrepared: locks held, awaiting phase two.
	TxnPrepared
	// TxnCommitted: phase two committed here.
	TxnCommitted
	// TxnAborted: phase two aborted here.
	TxnAborted
)

// TxnStatusResp answers TxnStatusReq.
type TxnStatusResp struct{ Status uint8 }

// RecoveryCoordinator resolves in-doubt distributed minitransactions left
// behind by crashed proxies. Exactly one should run per cluster (the paper
// runs it inside Sinfonia's management node).
type RecoveryCoordinator struct {
	t     netsim.Transport
	nodes []NodeID
	// minAge (nanoseconds) is how long a transaction must sit in-doubt
	// before recovery touches it; it must comfortably exceed a healthy
	// coordinator's phase-one-to-phase-two latency. Atomic because tests
	// and operators adjust it while the background sweep loop runs.
	minAge atomic.Int64
}

// NewRecoveryCoordinator returns a recovery coordinator over the cluster.
func NewRecoveryCoordinator(t netsim.Transport, nodes []NodeID) *RecoveryCoordinator {
	rc := &RecoveryCoordinator{t: t, nodes: append([]NodeID(nil), nodes...)}
	rc.minAge.Store(int64(100 * time.Millisecond))
	return rc
}

// MinAge returns the in-doubt age threshold.
func (rc *RecoveryCoordinator) MinAge() time.Duration { return time.Duration(rc.minAge.Load()) }

// SetMinAge changes the in-doubt age threshold. Safe while Run is active.
func (rc *RecoveryCoordinator) SetMinAge(d time.Duration) { rc.minAge.Store(int64(d)) }

// SweepOnce scans every reachable memnode and resolves each in-doubt
// transaction it finds. It returns how many transactions were committed
// and aborted.
func (rc *RecoveryCoordinator) SweepOnce() (committed, aborted int, err error) {
	seen := make(map[uint64][]NodeID)
	for _, n := range rc.nodes {
		resp, err := rc.t.Call(n, &InDoubtReq{MinAgeNanos: rc.minAge.Load()})
		if err != nil {
			continue // unreachable memnodes are swept next time
		}
		ir, ok := resp.(*InDoubtResp)
		if !ok {
			return committed, aborted, fmt.Errorf("sinfonia: bad in-doubt response %T", resp)
		}
		for _, info := range ir.Txns {
			if _, dup := seen[info.Txid]; !dup {
				seen[info.Txid] = info.Participants
			}
		}
	}
	for txid, participants := range seen {
		ok, err := rc.resolve(txid, participants)
		if err != nil {
			return committed, aborted, err
		}
		if ok {
			committed++
		} else {
			aborted++
		}
	}
	return committed, aborted, nil
}

// resolve applies the Sinfonia rule to one in-doubt transaction.
func (rc *RecoveryCoordinator) resolve(txid uint64, participants []NodeID) (commit bool, err error) {
	if len(participants) == 0 {
		// Legacy prepare without a participant list: abort is the only
		// safe decision.
		return false, rc.finish(txid, participants, false)
	}
	commit = true
	for _, p := range participants {
		resp, err := rc.t.Call(p, &TxnStatusReq{Txid: txid})
		if err != nil {
			// A participant is unreachable: we cannot prove every vote was
			// yes, and we must not abort either (the missing participant
			// might have committed). Leave the transaction for a later
			// sweep, after fail-over restores the participant.
			return false, fmt.Errorf("sinfonia: participant %d unreachable for txn %d: %w", p, txid, err)
		}
		sr, ok := resp.(*TxnStatusResp)
		if !ok {
			return false, fmt.Errorf("sinfonia: bad status response %T", resp)
		}
		switch sr.Status {
		case TxnCommitted:
			// Some participant already committed: the original coordinator
			// decided commit; finish the job everywhere.
			return true, rc.finish(txid, participants, true)
		case TxnPrepared:
			// keep scanning
		default:
			// Unknown or aborted: commit is impossible.
			commit = false
		}
	}
	return commit, rc.finish(txid, participants, commit)
}

// finish drives phase two at every participant.
func (rc *RecoveryCoordinator) finish(txid uint64, participants []NodeID, commit bool) error {
	var req any
	if commit {
		req = &CommitReq{Txid: txid}
	} else {
		req = &AbortReq{Txid: txid}
	}
	var firstErr error
	for _, p := range participants {
		if _, err := rc.t.Call(p, req); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Run sweeps every interval, on the netsim clock, until stop is closed. It
// waits in slices of at most runPoll, which a closing stop cuts short on the
// wall clock, so it returns as soon as a sweep in flight has finished.
// Intended to be launched as a background goroutine by the cluster's
// management process.
func (rc *RecoveryCoordinator) Run(interval time.Duration, stop <-chan struct{}) {
	const runPoll = 5 * time.Millisecond
	clock := netsim.CurrentClock()
	next := clock.Now().Add(interval)
	for {
		select {
		case <-stop:
			return
		default:
		}
		if wait := next.Sub(clock.Now()); wait > 0 {
			netsim.SleepOrDone(clock, min(wait, runPoll), stop)
			continue
		}
		_, _, _ = rc.SweepOnce()
		next = clock.Now().Add(interval)
	}
}
