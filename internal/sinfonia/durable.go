package sinfonia

import (
	"fmt"

	"minuet/internal/wal"
	"minuet/internal/wire"
)

// Durable memnodes: a per-memnode write-ahead redo log (internal/wal) makes
// acknowledged minitransactions survive a whole-cluster restart — the gap
// that previously capped the system at cache/testbed use.
//
// Logging discipline (redo-only, group-committed). The log holds the
// encodings of the same redo records the backup receives (redo.go):
//
//   - Single-phase minitransaction (execCommit): writes are applied to
//     memory and the APPLY record is appended under the memnode mutex (so
//     log order equals apply order), then the handler group-commits the
//     record before acknowledging. Reads and failed compares log nothing.
//   - Prepare: the staged transaction — writes, every locked address, and
//     the participant list — is appended as a STAGE record and
//     group-committed BEFORE the yes vote leaves the node, the same rule as
//     for mirroring it: once the coordinator may decide commit, this node
//     must be able to keep its promise across a restart.
//   - Phase two: commit appends an APPLY record flagged as staged (redo
//     re-applies the writes and clears the stage); abort, and a commit with
//     nothing to write, append a RESOLVE record. Resolved outcomes redo into
//     the outcome log, so coordinator-recovery fencing survives restarts
//     too.
//
// Recovery (OpenDurable) redoes the newest checkpoint — itself a record
// stream, the shortest one that rebuilds the state it captured — and then
// the records logged after it. Staged transactions are restored with their
// locks, so the recovery coordinator, promotion, and double-fault machinery
// operate on a restarted node exactly as on a live one.
//
// A durability failure (torn disk, full disk, injected fault) poisons the
// memnode fail-stop: the failing operation is not acknowledged and every
// later request is refused, exactly like a crash — which is what the
// crash-injection tests then simulate recovery from. Backup mirror state
// (replicas of other primaries) is deliberately not logged: mirrors are
// reconstructible through SeedReplica/RemirrorStaged, and logging them
// would double every write's log traffic.

// DurOptions configures a durable memnode.
type DurOptions struct {
	// NoFsync skips fsyncs: commits survive process crashes but not
	// machine crashes. See wal.Options.
	NoFsync bool
	// CheckpointEvery is the log-bytes threshold that triggers a background
	// checkpoint (snapshot of the memnode state + log truncation).
	// 0 means the 8 MiB default; negative disables auto-checkpointing.
	CheckpointEvery int64
}

// defaultCheckpointEvery is the auto-checkpoint threshold when unset.
const defaultCheckpointEvery = 8 << 20

// stateVersion is the first byte of a checkpoint; it names the checkpoint
// layout and the redo record layout inside it (docs/WIRE.md).
const stateVersion = 2

// OpenDurable opens (or creates) a durable memnode over the given log
// filesystem, replaying any existing checkpoint and redo records. The
// returned memnode is ready to serve: committed items, staged prepares
// (with their locks), and resolved-transaction fencing are all restored.
func OpenDurable(id NodeID, fs wal.FS, opts DurOptions) (*Memnode, error) {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = defaultCheckpointEvery
	}
	l, rec, err := wal.Open(fs, wal.Options{NoFsync: opts.NoFsync})
	if err != nil {
		return nil, fmt.Errorf("memnode %d: open wal: %w", id, err)
	}
	m := NewMemnode(id)
	// The node is not shared yet, but replay mutates mu-guarded state, so
	// hold the lock for the whole restore rather than carve out an
	// exception to the locking discipline.
	restore := func() error {
		m.mu.Lock()
		defer m.mu.Unlock()
		if rec.Checkpoint != nil {
			if err := m.decodeStateLocked(rec.Checkpoint); err != nil {
				return fmt.Errorf("memnode %d: checkpoint: %w", id, err)
			}
		}
		for i, p := range rec.Records {
			if err := m.replayRecordLocked(p); err != nil {
				return fmt.Errorf("memnode %d: replay record %d: %w", id, i, err)
			}
		}
		m.relockStagedLocked()
		return nil
	}
	if err := restore(); err != nil {
		l.Close()
		return nil, err
	}
	m.wal = l
	m.durOpts = opts
	return m, nil
}

// Durable reports whether this memnode has a write-ahead log.
func (m *Memnode) Durable() bool { return m.wal != nil }

// WALStats returns the underlying log's counters (zero Stats when
// volatile).
func (m *Memnode) WALStats() wal.Stats {
	if m.wal == nil {
		return wal.Stats{}
	}
	return m.wal.Stats()
}

// Close releases the memnode's log, syncing it first. Any in-flight
// background checkpoint is waited out so it cannot race the log teardown.
// Volatile memnodes need no Close.
func (m *Memnode) Close() error {
	if m.wal == nil {
		return nil
	}
	m.bg.Wait()
	return m.wal.Close()
}

// CheckpointNow snapshots the memnode's durable state and truncates the
// log. Tests and operators call it directly; the commit path triggers it
// automatically past DurOptions.CheckpointEvery.
func (m *Memnode) CheckpointNow() error {
	if m.wal == nil {
		return nil
	}
	m.mu.Lock()
	if m.failed {
		m.mu.Unlock()
		return fmt.Errorf("memnode %d: durability failed", m.id)
	}
	state := m.encodeStateLocked()
	// Rotation happens under the memnode mutex: no record can land between
	// the state snapshot and the cut, so checkpoint+tail replay is exact.
	cut, err := m.wal.BeginCheckpoint()
	if err != nil {
		m.failed = true
		m.mu.Unlock()
		return err
	}
	m.mu.Unlock()
	return m.wal.FinishCheckpoint(cut, state)
}

// maybeCheckpoint starts a background checkpoint when enough log has
// accumulated. Must be called without m.mu held.
func (m *Memnode) maybeCheckpoint() {
	if m.wal == nil || m.durOpts.CheckpointEvery <= 0 {
		return
	}
	if m.wal.SinceCheckpoint() < m.durOpts.CheckpointEvery {
		return
	}
	if !m.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	m.bg.Add(1)
	go func() {
		defer m.bg.Done()
		defer m.ckptBusy.Store(false)
		// A checkpoint failure poisons the log; the next commit surfaces
		// it as fail-stop. Nothing to do here.
		_ = m.CheckpointNow()
	}()
}

// checkTxnSize refuses a minitransaction whose redo record might not fit in
// a wal frame (wal.MaxRecordLen) — checked up front, before any state
// mutates, so an oversized request gets a clean error instead of poisoning
// a healthy node when the post-apply append fails. The bound conservatively
// over-counts the encoding: per-write overhead is 20 bytes (addr + version +
// length) and the rest of an empty record minRedoLen.
func (m *Memnode) checkTxnSize(writes []WriteItem, nAddrs, nParticipants int) error {
	if m.wal == nil {
		return nil
	}
	bound := int64(64) + 8*int64(nAddrs) + 4*int64(nParticipants)
	for i := range writes {
		bound += 24 + int64(len(writes[i].Data))
	}
	if bound > wal.MaxRecordLen {
		return fmt.Errorf("memnode %d: minitransaction too large for a wal record (max %d bytes)", m.id, int64(wal.MaxRecordLen))
	}
	return nil
}

// walAppendLocked encodes and appends a record under m.mu, poisoning the node on
// failure. Returns 0 when the node is volatile.
func (m *Memnode) walAppendLocked(rec *RedoRecord) (uint64, error) {
	if m.wal == nil {
		return 0, nil
	}
	// Append copies the payload into the log before it returns, so one
	// buffer serves every record; it keeps the size of the largest record
	// this node has logged, at most wal.MaxRecordLen.
	m.walBuf.Reset()
	m.walBuf.Grow(redoLen(rec))
	encodeRedo(&m.walBuf, rec)
	lsn, err := m.wal.Append(m.walBuf.Bytes())
	if err != nil {
		m.failed = true
		return 0, fmt.Errorf("memnode %d: wal append: %w", m.id, err)
	}
	return lsn, nil
}

// walCommit group-commits lsn (without m.mu held), poisoning the node on
// failure. lsn 0 (nothing logged) is a no-op.
func (m *Memnode) walCommit(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	if err := m.wal.Commit(lsn); err != nil {
		m.mu.Lock()
		m.failed = true
		m.mu.Unlock()
		return fmt.Errorf("memnode %d: wal commit: %w", m.id, err)
	}
	return nil
}

// replayRecordLocked redoes one logged record on a recovering memnode. Redo is
// idempotent, so re-replaying a suffix after an interrupted recovery
// converges.
func (m *Memnode) replayRecordLocked(p []byte) error {
	r := wire.NewReader(p)
	rec, err := decodeRedo(r)
	if err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return errBadRecord
	}
	m.redoLocked(&rec)
	return nil
}

// encodeStateLocked serializes the memnode's durable state for a checkpoint:
// the version byte, a record count, and the records of snapshotLocked —
// outcomes, items, staged prepares. Caller holds m.mu.
func (m *Memnode) encodeStateLocked() []byte {
	recs := m.snapshotLocked(true)
	n := 1 + 4
	for i := range recs {
		n += redoLen(&recs[i])
	}
	b := wire.NewBuffer(n)
	b.U8(stateVersion)
	b.U32(uint32(len(recs)))
	for i := range recs {
		encodeRedo(b, &recs[i])
	}
	return b.Bytes()
}

// decodeStateLocked loads a checkpoint into a fresh memnode.
func (m *Memnode) decodeStateLocked(p []byte) error {
	r := wire.NewReader(p)
	if r.U8() != stateVersion {
		return fmt.Errorf("sinfonia: unknown checkpoint version")
	}
	n := r.Count(minRedoLen)
	for i := 0; i < n; i++ {
		rec, err := decodeRedo(r)
		if err != nil {
			return err
		}
		m.redoLocked(&rec)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return errBadRecord
	}
	return nil
}
