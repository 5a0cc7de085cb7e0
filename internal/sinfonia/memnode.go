package sinfonia

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minuet/internal/netsim"
	"minuet/internal/wal"
)

// Memnode is a Sinfonia storage node: an in-memory, byte-addressable item
// store with two-phase locking scoped to minitransaction execution. It
// implements netsim.Handler so it can be bound to either the in-process
// transport or the TCP transport.
//
// Concurrency model: a single mutex guards the item and lock tables. The
// paper's deployment dedicates two cores per memnode; handler critical
// sections here are microseconds long, so a single lock matches that
// capacity while keeping the locking protocol easy to verify. Cross-phase
// (prepare→commit) locks are represented in the locked table rather than by
// holding the mutex.
type Memnode struct {
	id NodeID

	mu       sync.Mutex
	items    map[Addr]*item     // guarded by mu
	locked   map[Addr]uint64    // guarded by mu; addr -> txid that holds the prepare lock
	staged   map[uint64]*staged // guarded by mu; txid -> staged writes
	outcomes *outcomeLog        // guarded by mu; resolved distributed txns (recovery fencing)

	// Replication. When backup is set, every committed batch of writes is
	// forwarded to the backup memnode with explicit per-item versions, so
	// the backup converges under a version guard whatever the arrival order.
	transport netsim.Transport
	backup    NodeID
	hasBackup bool

	// replicas holds mirrored state for primaries this node backs up,
	// keyed by primary node id. guarded by mu.
	replicas map[NodeID]*replicaStore

	// Durability (see durable.go). wal is nil for volatile memnodes and
	// fixed after construction; failed flips on the first log failure and
	// fail-stops the node: the failing operation is never acknowledged and
	// every later request is refused.
	wal      *wal.Log
	durOpts  DurOptions
	failed   bool // guarded by mu
	ckptBusy atomic.Bool
	bg       sync.WaitGroup // in-flight background checkpoint; Close waits

	commits    int64 // guarded by mu
	aborts     int64 // guarded by mu
	busyAborts int64 // guarded by mu
}

// item is one stored object. data is install-once: a write replaces the
// slice with a fresh one (applyWritesLocked, replay, mirroring) and nothing
// ever writes into a slice after installing it, so readers may keep the slice
// they were handed for as long as they like — doReadsLocked, scan and
// snapshotState return it without copying, and the backup batch and WAL
// record are built from it after the mutex is released. Clients hold up the
// other half of the rule: a fetched image is never modified
// (docs/ARCHITECTURE.md, "Image ownership").
type item struct {
	data    []byte
	version uint64
}

type staged struct {
	writes       []WriteItem
	addrs        []Addr // all addresses locked by this txn on this node
	participants []NodeID
	preparedAt   time.Time
}

// outcomeLog remembers recently resolved distributed transactions so a
// slow coordinator's late phase-two message cannot contradict a decision
// the recovery coordinator already made. Bounded FIFO.
type outcomeLog struct {
	m     map[uint64]uint8
	order []uint64
	cap   int
}

func newOutcomeLog(capacity int) *outcomeLog {
	return &outcomeLog{m: make(map[uint64]uint8), cap: capacity}
}

func (o *outcomeLog) record(txid uint64, status uint8) {
	if _, ok := o.m[txid]; !ok {
		o.order = append(o.order, txid)
		if len(o.order) > o.cap {
			delete(o.m, o.order[0])
			o.order = o.order[1:]
		}
	}
	o.m[txid] = status
}

func (o *outcomeLog) get(txid uint64) (uint8, bool) {
	s, ok := o.m[txid]
	return s, ok
}

// replicaStore mirrors one primary's state: its committed items and its
// prepared-but-unresolved (staged) distributed transactions. Committed
// applies carry explicit per-item versions, so they are applied immediately
// under a per-address version guard — arrival order does not matter, and an
// acknowledged apply is always reflected in the mirror (a sequence-gap
// parking scheme would silently hold acked writes hostage to a batch that
// may never arrive, losing them at promotion).
//
// resolved remembers transactions whose phase two has reached this mirror.
// It guards the staged map the way item versions guard the items: a stage
// message (or a full-state seed) that arrives AFTER the transaction's
// resolve must not resurrect the prepare — a resurrected stale prepare
// would carry old writes that a later promotion could re-commit over newer
// committed data. It also seeds the promoted node's outcome log, so late
// phase-two messages stay fenced across fail-over.
type replicaStore struct {
	items    map[Addr]*item
	staged   map[uint64]*staged
	resolved *outcomeLog
}

// NewMemnode creates a memnode with the given identity.
func NewMemnode(id NodeID) *Memnode {
	return &Memnode{
		id:       id,
		items:    make(map[Addr]*item),
		locked:   make(map[Addr]uint64),
		staged:   make(map[uint64]*staged),
		outcomes: newOutcomeLog(8192),
		replicas: make(map[NodeID]*replicaStore),
	}
}

// ID returns the memnode's identity.
func (m *Memnode) ID() NodeID { return m.id }

// SetBackup configures synchronous primary-backup replication: every
// committed write batch is forwarded to node `backup` over t.
func (m *Memnode) SetBackup(t netsim.Transport, backup NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.transport = t
	m.backup = backup
	m.hasBackup = true
}

// HandleRPC implements netsim.Handler.
func (m *Memnode) HandleRPC(req any) (any, error) {
	if m.wal != nil {
		m.mu.Lock()
		failed := m.failed
		m.mu.Unlock()
		if failed {
			return nil, fmt.Errorf("memnode %d: durability failed (fail-stop)", m.id)
		}
	}
	switch r := req.(type) {
	case *ExecCommitReq:
		return m.execCommit(r)
	case *PrepareReq:
		return m.prepare(r)
	case *CommitReq:
		if err := m.commit(r.Txid); err != nil {
			return nil, err
		}
		return &Ack{}, nil
	case *AbortReq:
		if err := m.abort(r.Txid); err != nil {
			return nil, err
		}
		return &Ack{}, nil
	case *ReplicaApplyReq:
		m.replicaApply(r)
		return &Ack{}, nil
	case *ReplicaStageReq:
		m.replicaStage(r)
		return &Ack{}, nil
	case *ReplicaResolveReq:
		m.replicaResolve(r)
		return &Ack{}, nil
	case *ScanReq:
		return m.scan(r), nil
	case *SnapshotStateReq:
		return m.snapshotState(), nil
	case *StatsReq:
		return m.stats(), nil
	case *InDoubtReq:
		return m.inDoubt(r), nil
	case *TxnStatusReq:
		return m.txnStatus(r), nil
	default:
		return nil, fmt.Errorf("memnode %d: unknown request %T", m.id, req)
	}
}

// touchedAddrs returns the deduplicated set of addresses a minitransaction
// touches on this node, in first-mention order. A point operation names a
// handful of addresses, which a scan of the output dedups without a map; a
// batch commit names hundreds and gets one.
func touchedAddrs(cmp []CompareItem, rd []ReadItem, wr []WriteItem) []Addr {
	n := len(cmp) + len(rd) + len(wr)
	out := make([]Addr, 0, n)
	var seen map[Addr]struct{}
	if n > 16 {
		seen = make(map[Addr]struct{}, n)
	}
	add := func(a Addr) {
		if seen != nil {
			if _, dup := seen[a]; dup {
				return
			}
			seen[a] = struct{}{}
		} else {
			for _, b := range out {
				if b == a {
					return
				}
			}
		}
		out = append(out, a)
	}
	for i := range cmp {
		add(cmp[i].Addr)
	}
	for i := range rd {
		add(rd[i].Addr)
	}
	for i := range wr {
		add(wr[i].Addr)
	}
	return out
}

// waitUnlocked blocks until none of addrs is locked by another transaction,
// or the deadline passes. It must be called with m.mu held; it releases and
// reacquires the mutex while polling. Returns false on timeout.
//
// Blocking minitransactions are used only for rare, contention-prone updates
// (the replicated tip snapshot id, §4.1), so a short poll interval costs
// nothing measurable while keeping the lock manager free of wait queues.
func (m *Memnode) waitUnlocked(addrs []Addr, txid uint64, deadline time.Time) bool {
	const pollEvery = 50 * time.Microsecond
	for {
		if !m.anyLocked(addrs, txid) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		m.mu.Unlock()
		time.Sleep(pollEvery)
		m.mu.Lock()
	}
}

// anyLocked reports whether any of addrs is locked by a different txn.
// Caller must hold m.mu.
func (m *Memnode) anyLocked(addrs []Addr, txid uint64) bool {
	for _, a := range addrs {
		if holder, ok := m.locked[a]; ok && holder != txid {
			return true
		}
	}
	return false
}

// evalComparesLocked returns the indices of failed comparisons. Caller holds m.mu.
func (m *Memnode) evalComparesLocked(cmp []CompareItem) []int {
	var failed []int
	for i := range cmp {
		it := m.items[cmp[i].Addr]
		switch cmp[i].Kind {
		case CompareVersion:
			var v uint64
			if it != nil {
				v = it.version
			}
			if v != cmp[i].Version {
				failed = append(failed, i)
			}
		case CompareBytes:
			var data []byte
			if it != nil {
				data = it.data
			}
			if !bytes.Equal(data, cmp[i].Data) {
				failed = append(failed, i)
			}
		default:
			failed = append(failed, i)
		}
	}
	return failed
}

// doReadsLocked executes read items, handing out the stored images themselves
// (see item). Caller holds m.mu.
func (m *Memnode) doReadsLocked(rd []ReadItem) []ReadResult {
	out := make([]ReadResult, len(rd))
	for i := range rd {
		if it, ok := m.items[rd[i].Addr]; ok {
			out[i] = ReadResult{Data: it.data, Version: it.version, Exists: true}
		}
	}
	return out
}

// applyWritesLocked applies write items and returns the replica batch. Each
// write installs a private copy of the request's bytes (the request buffer
// stays the client's) and never touches the slice it replaces. Caller holds
// m.mu.
func (m *Memnode) applyWritesLocked(wr []WriteItem) *ReplicaApplyReq {
	if len(wr) == 0 {
		return nil
	}
	var rep *ReplicaApplyReq
	if m.hasBackup || m.wal != nil {
		// The batch doubles as the WAL's APPLY record source: it carries the
		// exact versions assigned here, so replay is idempotent.
		rep = &ReplicaApplyReq{From: m.id}
	}
	for i := range wr {
		it := m.items[wr[i].Addr]
		if it == nil {
			it = &item{}
			m.items[wr[i].Addr] = it
		}
		it.data = make([]byte, len(wr[i].Data))
		copy(it.data, wr[i].Data)
		it.version++
		if rep != nil {
			rep.Addrs = append(rep.Addrs, wr[i].Addr)
			rep.Data = append(rep.Data, it.data)
			rep.Versions = append(rep.Versions, it.version)
		}
	}
	m.commits++
	return rep
}

// forwardToBackup sends a committed batch to the backup synchronously,
// before the client sees the ack. The mutex must NOT be held (backups form
// a ring; holding it while calling out could deadlock): concurrent sends
// may arrive in any order, which the backup's per-address version guard
// makes harmless.
func (m *Memnode) forwardToBackup(rep *ReplicaApplyReq) {
	if rep == nil || !m.hasBackup {
		return
	}
	// A failed backup is tolerated: the paper's Sinfonia masks backup
	// failures and re-synchronizes on recovery. The simulation simply
	// drops the apply; tests that exercise promotion keep the backup up.
	_, _ = m.transport.Call(m.backup, rep)
}

func (m *Memnode) execCommit(r *ExecCommitReq) (*ExecResp, error) {
	addrs := touchedAddrs(r.Compares, r.Reads, r.Writes)
	if err := m.checkTxnSize(r.Writes, 0, 0); err != nil {
		return nil, err
	}

	m.mu.Lock()
	if r.Blocking {
		deadline := time.Now().Add(time.Duration(r.WaitNanos))
		if !m.waitUnlocked(addrs, r.Txid, deadline) {
			m.busyAborts++
			m.mu.Unlock()
			return &ExecResp{Vote: voteBusy}, nil
		}
	} else if m.anyLocked(addrs, r.Txid) {
		m.busyAborts++
		m.mu.Unlock()
		return &ExecResp{Vote: voteBusy}, nil
	}
	if failed := m.evalComparesLocked(r.Compares); len(failed) > 0 {
		m.aborts++
		m.mu.Unlock()
		return &ExecResp{Vote: voteCompareFail, Failed: failed}, nil
	}
	reads := m.doReadsLocked(r.Reads)
	rep := m.applyWritesLocked(r.Writes)
	var lsn uint64
	var err error
	if rep != nil {
		// Appended under m.mu so log order equals apply order; the fsync
		// (group commit) happens below, outside the mutex.
		lsn, err = m.walAppendLocked(encodeApply(r.Txid, false, rep))
	}
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := m.walCommit(lsn); err != nil {
		return nil, err
	}

	m.forwardToBackup(rep)
	m.maybeCheckpoint()
	return &ExecResp{Vote: voteOK, Reads: reads}, nil
}

func (m *Memnode) prepare(r *PrepareReq) (*ExecResp, error) {
	addrs := touchedAddrs(r.Compares, r.Reads, r.Writes)
	// The STAGE bound dominates phase two's APPLY record for the same
	// writes, so checking here covers commit() too.
	if err := m.checkTxnSize(r.Writes, len(addrs), len(r.Participants)); err != nil {
		return nil, err
	}

	m.mu.Lock()

	if r.Blocking {
		deadline := time.Now().Add(time.Duration(r.WaitNanos))
		if !m.waitUnlocked(addrs, r.Txid, deadline) {
			m.busyAborts++
			m.mu.Unlock()
			return &ExecResp{Vote: voteBusy}, nil
		}
	} else if m.anyLocked(addrs, r.Txid) {
		m.busyAborts++
		m.mu.Unlock()
		return &ExecResp{Vote: voteBusy}, nil
	}
	if failed := m.evalComparesLocked(r.Compares); len(failed) > 0 {
		m.aborts++
		m.mu.Unlock()
		return &ExecResp{Vote: voteCompareFail, Failed: failed}, nil
	}
	reads := m.doReadsLocked(r.Reads)
	for _, a := range addrs {
		m.locked[a] = r.Txid
	}
	m.staged[r.Txid] = &staged{
		writes:       r.Writes,
		addrs:        addrs,
		participants: r.Participants,
		preparedAt:   time.Now(),
	}
	lsn, err := m.walAppendLocked(encodeStage(r.Txid, addrs, r.Participants, r.Writes))
	hasBackup := m.hasBackup
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// The STAGE record must be durable BEFORE the yes vote leaves this node
	// (the same rule as mirroring below): once the coordinator may decide
	// commit, a restart of this node must not forget the promise.
	if err := m.walCommit(lsn); err != nil {
		return nil, err
	}

	// Mirror the prepare to the backup BEFORE voting OK: once the vote is
	// out, the coordinator may decide commit, and a commit decision should
	// survive this node's crash. The mutex is released (replica calls are
	// never made under it — backups form a ring). A failed mirror call is
	// tolerated like any other backup failure (the paper masks them and
	// re-syncs on recovery): the prepare survives only this node's death,
	// not this node's death combined with an unreachable backup.
	if hasBackup {
		_, _ = m.transport.Call(m.backup, &ReplicaStageReq{
			From: m.id, Txid: r.Txid,
			Writes: r.Writes, Participants: r.Participants,
		})
	}
	m.maybeCheckpoint()
	return &ExecResp{Vote: voteOK, Reads: reads}, nil
}

func (m *Memnode) commit(txid uint64) error {
	m.mu.Lock()
	if status, resolved := m.outcomes.get(txid); resolved && status == TxnAborted {
		// The recovery coordinator already aborted this transaction; a
		// late commit from a slow coordinator must be refused.
		m.mu.Unlock()
		return nil
	}
	st, ok := m.staged[txid]
	var rep *ReplicaApplyReq
	resolveOnly := false
	var lsn uint64
	var err error
	if ok {
		rep = m.applyWritesLocked(st.writes)
		if rep != nil {
			rep.Txid = txid
			lsn, err = m.walAppendLocked(encodeApply(txid, true, rep))
		} else {
			resolveOnly = m.hasBackup // nothing to write; still clear the mirror
			// No writes, but the outcome still needs to be durable: the
			// RESOLVE record clears the stage and fences a late abort.
			lsn, err = m.walAppendLocked(encodeResolve(txid, false))
		}
		m.releaseLocked(txid, st)
		m.outcomes.record(txid, TxnCommitted)
	}
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if err := m.walCommit(lsn); err != nil {
		return err
	}
	m.forwardToBackup(rep)
	if resolveOnly {
		_, _ = m.transport.Call(m.backup, &ReplicaResolveReq{From: m.id, Txid: txid})
	}
	m.maybeCheckpoint()
	return nil
}

func (m *Memnode) abort(txid uint64) error {
	m.mu.Lock()
	var hadStage bool
	if status, resolved := m.outcomes.get(txid); resolved && status == TxnCommitted {
		// Already committed (possibly by recovery); a late abort must not
		// undo it — and cannot, since the staging entry is gone.
		m.mu.Unlock()
		return nil
	}
	if st, ok := m.staged[txid]; ok {
		m.aborts++
		m.releaseLocked(txid, st)
		hadStage = true
	}
	// Record the abort even when nothing is staged so that a late commit
	// arriving after this abort is fenced out.
	m.outcomes.record(txid, TxnAborted)
	var lsn uint64
	var err error
	if hadStage {
		// Only staged aborts are logged: with no stage there is nothing a
		// restart could resurrect, so the fence is only needed in memory.
		lsn, err = m.walAppendLocked(encodeResolve(txid, true))
	}
	hasBackup := m.hasBackup
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if err := m.walCommit(lsn); err != nil {
		return err
	}
	if hadStage && hasBackup {
		_, _ = m.transport.Call(m.backup, &ReplicaResolveReq{From: m.id, Txid: txid, Aborted: true})
	}
	return nil
}

// inDoubt lists staged distributed transactions older than the requested
// age — candidates for coordinator recovery.
func (m *Memnode) inDoubt(r *InDoubtReq) *InDoubtResp {
	m.mu.Lock()
	defer m.mu.Unlock()
	resp := &InDoubtResp{}
	for txid, st := range m.staged {
		age := time.Since(st.preparedAt)
		if age < time.Duration(r.MinAgeNanos) {
			continue
		}
		resp.Txns = append(resp.Txns, InDoubtInfo{
			Txid:         txid,
			Participants: append([]NodeID(nil), st.participants...),
			AgeNanos:     int64(age),
		})
	}
	return resp
}

// txnStatus reports this memnode's knowledge of a transaction.
func (m *Memnode) txnStatus(r *TxnStatusReq) *TxnStatusResp {
	m.mu.Lock()
	defer m.mu.Unlock()
	if status, ok := m.outcomes.get(r.Txid); ok {
		return &TxnStatusResp{Status: status}
	}
	if _, ok := m.staged[r.Txid]; ok {
		return &TxnStatusResp{Status: TxnPrepared}
	}
	return &TxnStatusResp{Status: TxnUnknown}
}

// releaseLocked drops txid's locks and staging entry. Caller holds m.mu.
func (m *Memnode) releaseLocked(txid uint64, st *staged) {
	for _, a := range st.addrs {
		if m.locked[a] == txid {
			delete(m.locked, a)
		}
	}
	delete(m.staged, txid)
}

// replicaLocked returns (creating if needed) the mirror store for primary `from`.
// Caller holds m.mu.
func (m *Memnode) replicaLocked(from NodeID) *replicaStore {
	rs := m.replicas[from]
	if rs == nil {
		rs = &replicaStore{
			items:    make(map[Addr]*item),
			staged:   make(map[uint64]*staged),
			resolved: newOutcomeLog(8192),
		}
		m.replicas[from] = rs
	}
	return rs
}

func (m *Memnode) replicaApply(r *ReplicaApplyReq) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.replicaLocked(r.From)
	for i := range r.Addrs {
		cur := rs.items[r.Addrs[i]]
		if cur != nil && cur.version >= r.Versions[i] {
			continue // already have this write or a newer one
		}
		d := make([]byte, len(r.Data[i]))
		copy(d, r.Data[i])
		rs.items[r.Addrs[i]] = &item{data: d, version: r.Versions[i]}
	}
	if r.Txid != 0 {
		delete(rs.staged, r.Txid)
		rs.resolved.record(r.Txid, TxnCommitted)
	}
}

func (m *Memnode) replicaStage(r *ReplicaStageReq) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.replicaLocked(r.From)
	if _, done := rs.resolved.get(r.Txid); done {
		return // stale (re-)mirror racing the resolve: do not resurrect
	}
	rs.staged[r.Txid] = &staged{
		writes:       r.Writes,
		participants: r.Participants,
		preparedAt:   time.Now(),
	}
}

func (m *Memnode) replicaResolve(r *ReplicaResolveReq) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.replicaLocked(r.From)
	delete(rs.staged, r.Txid)
	status := TxnCommitted
	if r.Aborted {
		status = TxnAborted
	}
	rs.resolved.record(r.Txid, status)
}

// PromoteReplica returns a new Memnode seeded with the mirrored state of the
// given failed primary: its committed items plus its prepared-but-unresolved
// distributed transactions (with their locks), so a phase-two commit or a
// recovery-coordinator sweep arriving after fail-over still lands. Bind the
// returned node to the primary's NodeID to complete fail-over.
func (m *Memnode) PromoteReplica(primary NodeID) *Memnode {
	m.mu.Lock()
	defer m.mu.Unlock()
	nm := NewMemnode(primary)
	if rs, ok := m.replicas[primary]; ok {
		for a, it := range rs.items {
			d := make([]byte, len(it.data))
			copy(d, it.data)
			nm.items[a] = &item{data: d, version: it.version}
		}
		// Carry the resolution log across promotion: without it a late
		// phase-two message (or a stale staged seed) arriving after
		// fail-over would not be fenced.
		for _, txid := range rs.resolved.order {
			nm.outcomes.record(txid, rs.resolved.m[txid])
		}
		for txid, st := range rs.staged {
			addrs := touchedAddrs(nil, nil, st.writes)
			nm.staged[txid] = &staged{
				writes:       st.writes,
				addrs:        addrs,
				participants: append([]NodeID(nil), st.participants...),
				preparedAt:   time.Now(),
			}
			for _, a := range addrs {
				nm.locked[a] = txid
			}
		}
	}
	return nm
}

// SeedReplica merges a full state snapshot of `primary` into this node's
// mirror under the per-address version guard, so concurrently arriving
// replica applies are never regressed. Used when a promoted node takes over
// backup duty for a primary whose previous mirror died with the old host.
//
// The primary's in-flight prepares are merged too: without them, a second
// crash of the primary would promote a mirror with no knowledge of
// transactions other participants already voted yes on, and a commit
// decision could silently lose this primary's writes. The snapshot may race
// the primary's own resolves — a transaction staged when the snapshot was
// taken can commit or abort before the seed lands here — so the merge is
// guarded by the mirror's resolution log, exactly like stage messages: a
// seed never resurrects a prepare whose resolve this mirror has seen.
func (m *Memnode) SeedReplica(primary NodeID, st *SnapshotStateResp) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.replicaLocked(primary)
	for i := range st.Addrs {
		cur := rs.items[st.Addrs[i]]
		if cur != nil && cur.version >= st.Versions[i] {
			continue
		}
		d := make([]byte, len(st.Data[i]))
		copy(d, st.Data[i])
		rs.items[st.Addrs[i]] = &item{data: d, version: st.Versions[i]}
	}
	for i, txid := range st.StagedTxids {
		if _, done := rs.resolved.get(txid); done {
			continue // resolved while the seed was in flight
		}
		if _, ok := rs.staged[txid]; ok {
			continue
		}
		rs.staged[txid] = &staged{
			writes:       st.StagedWrites[i],
			participants: append([]NodeID(nil), st.StagedParticipants[i]...),
			preparedAt:   time.Now(),
		}
	}
}

// RemirrorStaged forwards every staged (prepared, unresolved) transaction on
// this node to its backup. A freshly promoted node calls this after its
// backup link is re-armed: the prepares it inherited at promotion were
// mirrored to the dead host's backup chain, and must reach the new one
// before this node can be allowed to fail in turn.
func (m *Memnode) RemirrorStaged() {
	m.mu.Lock()
	if !m.hasBackup {
		m.mu.Unlock()
		return
	}
	reqs := make([]*ReplicaStageReq, 0, len(m.staged))
	for txid, st := range m.staged {
		reqs = append(reqs, &ReplicaStageReq{
			From: m.id, Txid: txid,
			Writes: st.writes, Participants: append([]NodeID(nil), st.participants...),
		})
	}
	backup := m.backup
	tr := m.transport
	m.mu.Unlock()
	for _, r := range reqs {
		_, _ = tr.Call(backup, r)
	}
}

func (m *Memnode) scan(r *ScanReq) *ScanResp {
	m.mu.Lock()
	defer m.mu.Unlock()
	resp := &ScanResp{}
	for a, it := range m.items {
		if a < r.MinAddr || a >= r.MaxAddr {
			continue
		}
		n := r.PrefixLen
		if n > len(it.data) {
			n = len(it.data)
		}
		resp.Items = append(resp.Items, ItemInfo{Addr: a, Version: it.version, Prefix: it.data[:n:n]})
	}
	return resp
}

func (m *Memnode) snapshotState() *SnapshotStateResp {
	m.mu.Lock()
	defer m.mu.Unlock()
	resp := &SnapshotStateResp{}
	for a, it := range m.items {
		resp.Addrs = append(resp.Addrs, a)
		resp.Data = append(resp.Data, it.data)
		resp.Versions = append(resp.Versions, it.version)
	}
	for txid, st := range m.staged {
		resp.StagedTxids = append(resp.StagedTxids, txid)
		resp.StagedWrites = append(resp.StagedWrites, st.writes)
		resp.StagedParticipants = append(resp.StagedParticipants, append([]NodeID(nil), st.participants...))
	}
	for from, rs := range m.replicas {
		for a, it := range rs.items {
			resp.MirrorFor = append(resp.MirrorFor, from)
			resp.MirrorAddrs = append(resp.MirrorAddrs, a)
			resp.MirrorData = append(resp.MirrorData, it.data)
			resp.MirrorVersions = append(resp.MirrorVersions, it.version)
		}
	}
	return resp
}

func (m *Memnode) stats() *StatsResp {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b int64
	for _, it := range m.items {
		b += int64(len(it.data))
	}
	return &StatsResp{
		Items:      len(m.items),
		Commits:    m.commits,
		Aborts:     m.aborts,
		BusyAborts: m.busyAborts,
		Bytes:      b,
	}
}
