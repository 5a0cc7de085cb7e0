package sinfonia

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minuet/internal/netsim"
	"minuet/internal/wal"
	"minuet/internal/wire"
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

	mu     sync.Mutex
	state                  // items, staged, outcomes: what redo records change (redo.go)
	locked map[Addr]uint64 // guarded by mu; addr -> txid that holds the prepare lock

	// Replication. When backup is set, every redo record this node emits is
	// sent to the backup memnode before the change is acknowledged.
	transport netsim.Transport
	backup    NodeID
	hasBackup bool

	// replicas holds mirrored state for primaries this node backs up,
	// keyed by primary node id. guarded by mu.
	replicas map[NodeID]*state

	// Durability (see durable.go). wal is nil for volatile memnodes and
	// fixed after construction; failed flips on the first log failure and
	// fail-stops the node: the failing operation is never acknowledged and
	// every later request is refused.
	wal      *wal.Log
	durOpts  DurOptions
	failed   bool        // guarded by mu
	walBuf   wire.Buffer // guarded by mu; walAppendLocked's encoding, reused
	ckptBusy atomic.Bool
	bg       sync.WaitGroup // in-flight background checkpoint; Close waits

	commits    int64 // guarded by mu
	aborts     int64 // guarded by mu
	busyAborts int64 // guarded by mu
}

// item is one stored object. data is install-once: a write replaces the
// slice with a fresh one (state.putLocked) and nothing ever writes into a
// slice after installing it, so readers may keep the slice they were handed
// for as long as they like — doReadsLocked, scan and snapshotState return it
// without copying, and the redo record that carries it to the backup is read
// after the mutex is released. Clients hold up the other half of the rule: a
// fetched image is never modified (docs/ARCHITECTURE.md, "Image ownership").
type item struct {
	data    []byte
	version uint64
}

// staged is a prepared, unresolved transaction: the stage record that the
// log and the backup hold for it too (its writes, its full lock set, its
// participants), and when this node prepared or redid it.
type staged struct {
	rec        RedoRecord
	preparedAt time.Time
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

// NewMemnode creates a memnode with the given identity.
func NewMemnode(id NodeID) *Memnode {
	return &Memnode{
		id:       id,
		state:    newState(),
		locked:   make(map[Addr]uint64),
		replicas: make(map[NodeID]*state),
	}
}

// ID returns the memnode's identity.
func (m *Memnode) ID() NodeID { return m.id }

// SetBackup configures synchronous primary-backup replication: every redo
// record is mirrored to node `backup` over t.
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
	case *ReplicaRedoReq:
		m.mu.Lock()
		m.replicaLocked(r.From).redoLocked(&r.Rec)
		m.mu.Unlock()
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

// blockWait bounds how long a blocking minitransaction may wait at a memnode
// for busy locks before it is refused like an ordinary one (§4.1: "bounded by
// a threshold small enough so that blocking minitransactions do not trigger
// Sinfonia's recovery mechanism"). The bound is the memnode's: no request
// field can lengthen how long a handler polls.
const blockWait = 10 * time.Millisecond

// waitUnlocked blocks until none of addrs is locked by another transaction,
// or blockWait passes on the netsim clock. It must be called with m.mu held;
// it releases and reacquires the mutex while polling. Returns false on
// timeout.
//
// Blocking minitransactions are used only for rare, contention-prone updates
// (the replicated tip snapshot id, §4.1), so a short poll interval costs
// nothing measurable while keeping the lock manager free of wait queues.
func (m *Memnode) waitUnlocked(addrs []Addr, txid uint64) bool {
	const pollEvery = 50 * time.Microsecond
	if !m.anyLocked(addrs, txid) {
		return true
	}
	clock := netsim.CurrentClock()
	deadline := clock.Now().Add(blockWait)
	for m.anyLocked(addrs, txid) {
		if clock.Now().After(deadline) {
			return false
		}
		m.mu.Unlock()
		clock.Sleep(pollEvery)
		m.mu.Lock()
	}
	return true
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

// evalComparesLocked returns the indices of failed comparisons: those whose
// item's version (0 for a missing item) is not the expected one. Caller
// holds m.mu.
func (m *Memnode) evalComparesLocked(cmp []CompareItem) []int {
	var failed []int
	for i := range cmp {
		var v uint64
		if it := m.items[cmp[i].Addr]; it != nil {
			v = it.version
		}
		if v != cmp[i].Version {
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

// admitLocked is the part of phase one that the one-phase and the two-phase
// path share: wait for (blocking) or test the locks on addrs, evaluate the
// comparisons, perform the reads. A non-nil refused is the vote to send back
// instead of going on. Caller holds m.mu, which a blocking wait releases and
// retakes.
func (m *Memnode) admitLocked(txid uint64, addrs []Addr, cmp []CompareItem, rd []ReadItem, blocking bool) (reads []ReadResult, refused *ExecResp) {
	if blocking {
		if !m.waitUnlocked(addrs, txid) {
			m.busyAborts++
			return nil, &ExecResp{Vote: voteBusy}
		}
	} else if m.anyLocked(addrs, txid) {
		m.busyAborts++
		return nil, &ExecResp{Vote: voteBusy}
	}
	if failed := m.evalComparesLocked(cmp); len(failed) > 0 {
		m.aborts++
		return nil, &ExecResp{Vote: voteCompareFail, Failed: failed}
	}
	return m.doReadsLocked(rd), nil
}

// applyWritesLocked applies write items as the next version of each address
// and returns the apply record that repeats them elsewhere (nil when there is
// nothing to apply, or no log and no backup to tell). Each write installs a
// private copy of the request's bytes (the request buffer stays the
// client's). staged marks phase two of a prepared transaction. Caller holds
// m.mu.
func (m *Memnode) applyWritesLocked(txid uint64, staged bool, wr []WriteItem) *RedoRecord {
	if len(wr) == 0 {
		return nil
	}
	var rec *RedoRecord
	if m.emits() {
		// The record carries the exact versions assigned here, so redoing it
		// is idempotent.
		rec = &RedoRecord{Kind: recApply, Txid: txid, Flag: staged, Writes: make([]WriteItem, 0, len(wr))}
	}
	for i := range wr {
		cur := m.items[wr[i].Addr]
		var version uint64 = 1
		if cur != nil {
			version = cur.version + 1
		}
		data := make([]byte, len(wr[i].Data))
		copy(data, wr[i].Data)
		m.putLocked(cur, wr[i].Addr, version, data)
		if rec != nil {
			rec.Writes = append(rec.Writes, WriteItem{Addr: wr[i].Addr, Version: version, Data: data})
		}
	}
	m.commits++
	return rec
}

// emits reports whether anyone is told of this node's changes: a volatile
// node without a backup builds no redo records at all.
func (m *Memnode) emits() bool { return m.hasBackup || m.wal != nil }

// mirror sends a record to the backup synchronously, before the client sees
// the ack. The mutex must NOT be held (backups form a ring; holding it while
// calling out could deadlock): concurrent sends may arrive in any order,
// which redoLocked's guards make harmless.
func (m *Memnode) mirror(rec *RedoRecord) {
	if rec == nil || !m.hasBackup {
		return
	}
	// A failed backup is tolerated: the paper's Sinfonia masks backup
	// failures and re-synchronizes on recovery. The simulation simply drops
	// the record; tests that exercise promotion keep the backup up. For a
	// stage that means the prepare survives only this node's death, not this
	// node's death combined with an unreachable backup.
	_, _ = m.transport.Call(m.backup, &ReplicaRedoReq{From: m.id, Rec: *rec})
}

// publishUnlock releases m.mu, which the caller holds, and makes the record
// the caller emitted under it survive this node: the log append happens
// before the unlock (so log order equals apply order), the group commit and
// the mirror call after it (an fsync or a call into another memnode under
// the mutex would stall, or with backups in a ring deadlock, every handler).
// It returns before the change may be acknowledged — for a stage, before the
// yes vote leaves the node: once the coordinator may decide commit, neither a
// restart nor a fail-over of this node may forget the promise. A nil rec
// (nothing changed, or nobody to tell) only unlocks.
func (m *Memnode) publishUnlock(rec *RedoRecord) error {
	if rec == nil {
		m.mu.Unlock()
		return nil
	}
	lsn, err := m.walAppendLocked(rec)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if err := m.walCommit(lsn); err != nil {
		return err
	}
	m.mirror(rec)
	m.maybeCheckpoint()
	return nil
}

func (m *Memnode) execCommit(r *ExecCommitReq) (*ExecResp, error) {
	addrs := touchedAddrs(r.Compares, r.Reads, r.Writes)
	if err := m.checkTxnSize(r.Writes, 0, 0); err != nil {
		return nil, err
	}

	m.mu.Lock()
	reads, refused := m.admitLocked(r.Txid, addrs, r.Compares, r.Reads, r.Blocking)
	if refused != nil {
		m.mu.Unlock()
		return refused, nil
	}
	rec := m.applyWritesLocked(r.Txid, false, r.Writes)
	if err := m.publishUnlock(rec); err != nil {
		return nil, err
	}
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
	reads, refused := m.admitLocked(r.Txid, addrs, r.Compares, r.Reads, r.Blocking)
	if refused != nil {
		m.mu.Unlock()
		return refused, nil
	}
	for _, a := range addrs {
		m.locked[a] = r.Txid
	}
	st := &staged{
		rec:        RedoRecord{Kind: recStage, Txid: r.Txid, Writes: r.Writes, Locks: addrs, Participants: r.Participants},
		preparedAt: netsim.CurrentClock().Now(),
	}
	m.staged[r.Txid] = st
	var rec *RedoRecord
	if m.emits() {
		rec = &st.rec
	}
	if err := m.publishUnlock(rec); err != nil {
		return nil, err
	}
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
	var rec *RedoRecord
	if st, ok := m.staged[txid]; ok {
		rec = m.applyWritesLocked(txid, true, st.rec.Writes)
		if len(st.rec.Writes) == 0 && m.emits() {
			// No writes, but the outcome still has to reach the log and the
			// mirror: the resolve clears the stage and fences a late abort.
			rec = &RedoRecord{Kind: recResolve, Txid: txid}
		}
		m.releaseLocked(txid, st)
		m.outcomes.record(txid, TxnCommitted)
	}
	return m.publishUnlock(rec)
}

func (m *Memnode) abort(txid uint64) error {
	m.mu.Lock()
	if status, resolved := m.outcomes.get(txid); resolved && status == TxnCommitted {
		// Already committed (possibly by recovery); a late abort must not
		// undo it — and cannot, since the staging entry is gone.
		m.mu.Unlock()
		return nil
	}
	var rec *RedoRecord
	if st, ok := m.staged[txid]; ok {
		m.aborts++
		m.releaseLocked(txid, st)
		// Only staged aborts are logged and mirrored: with no stage there is
		// nothing a restart or a promotion could resurrect, so the fence is
		// only needed in memory.
		if m.emits() {
			rec = &RedoRecord{Kind: recResolve, Txid: txid, Flag: true}
		}
	}
	// Record the abort even when nothing is staged so that a late commit
	// arriving after this abort is fenced out.
	m.outcomes.record(txid, TxnAborted)
	return m.publishUnlock(rec)
}

// inDoubt lists staged distributed transactions older than the requested
// age — candidates for coordinator recovery.
func (m *Memnode) inDoubt(r *InDoubtReq) *InDoubtResp {
	m.mu.Lock()
	defer m.mu.Unlock()
	resp := &InDoubtResp{}
	now := netsim.CurrentClock().Now()
	for txid, st := range m.staged {
		age := now.Sub(st.preparedAt)
		if age < time.Duration(r.MinAgeNanos) {
			continue
		}
		resp.Txns = append(resp.Txns, InDoubtInfo{
			Txid:         txid,
			Participants: append([]NodeID(nil), st.rec.Participants...),
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
	for _, a := range st.rec.Locks {
		if m.locked[a] == txid {
			delete(m.locked, a)
		}
	}
	delete(m.staged, txid)
}

// replicaLocked returns (creating if needed) the mirror of primary `from`.
// Caller holds m.mu.
func (m *Memnode) replicaLocked(from NodeID) *state {
	rs := m.replicas[from]
	if rs == nil {
		st := newState()
		rs = &st
		m.replicas[from] = rs
	}
	return rs
}

// relockStagedLocked retakes every staged transaction's locks, the step that
// turns a redone state into a serving node: phase two (from the original
// coordinator retrying, or the recovery coordinator's sweep) finds the
// prepares of a restarted or promoted node where it left them. Caller holds
// m.mu.
func (m *Memnode) relockStagedLocked() {
	for txid, st := range m.staged {
		for _, a := range st.rec.Locks {
			m.locked[a] = txid
		}
	}
}

// PromoteReplica returns a new Memnode seeded with the mirrored state of the
// given failed primary: its committed items, its resolution log (without it
// a late phase-two message arriving after fail-over would not be fenced) and
// its prepared-but-unresolved distributed transactions with their full lock
// sets, so a phase-two commit or a recovery-coordinator sweep arriving after
// fail-over still lands. Bind the returned node to the primary's NodeID to
// complete fail-over.
func (m *Memnode) PromoteReplica(primary NodeID) *Memnode {
	m.mu.Lock()
	var recs []RedoRecord
	if rs, ok := m.replicas[primary]; ok {
		recs = rs.snapshotLocked(true)
	}
	m.mu.Unlock()

	nm := NewMemnode(primary)
	nm.mu.Lock()
	defer nm.mu.Unlock()
	for i := range recs {
		nm.redoLocked(&recs[i])
	}
	nm.relockStagedLocked()
	return nm
}

// SeedReplica merges a full state snapshot of `primary` into this node's
// mirror, so concurrently arriving mirror records are never regressed. Used
// when a promoted node takes over backup duty for a primary whose previous
// mirror died with the old host.
//
// The primary's in-flight prepares are merged too: without them, a second
// crash of the primary would promote a mirror with no knowledge of
// transactions other participants already voted yes on, and a commit
// decision could silently lose this primary's writes. The snapshot may race
// the primary's own resolves — a transaction staged when the snapshot was
// taken can commit or abort before the seed lands here — which is the race
// redoLocked's fence exists for.
func (m *Memnode) SeedReplica(primary NodeID, st *SnapshotStateResp) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.replicaLocked(primary)
	for i := range st.Records {
		rs.redoLocked(&st.Records[i])
	}
}

// RemirrorStaged forwards every staged (prepared, unresolved) transaction on
// this node to its backup. A freshly promoted node calls this after its
// backup link is re-armed: the prepares it inherited at promotion were
// mirrored to the dead host's backup chain, and must reach the new one
// before this node can be allowed to fail in turn.
func (m *Memnode) RemirrorStaged() {
	m.mu.Lock()
	recs := make([]RedoRecord, 0, len(m.staged))
	for _, st := range m.staged {
		recs = append(recs, st.rec)
	}
	m.mu.Unlock()
	for i := range recs {
		m.mirror(&recs[i])
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
	resp := &SnapshotStateResp{Records: m.snapshotLocked(false)}
	for from, rs := range m.replicas {
		for _, rec := range rs.snapshotLocked(false) {
			resp.Mirrors = append(resp.Mirrors, ReplicaRedoReq{From: from, Rec: rec})
		}
	}
	return resp
}

func (m *Memnode) stats() *StatsResp {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &StatsResp{
		Items:      len(m.items),
		Commits:    m.commits,
		Aborts:     m.aborts,
		BusyAborts: m.busyAborts,
		Bytes:      m.bytes,
	}
}
