package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
)

// File layout inside an FS directory:
//
//	wal-<seq>.log   redo segments, seq strictly increasing; records are
//	                appended to the highest segment only
//	ckpt-<seq>      checkpoint: one framed state blob covering every
//	                segment with a smaller seq (those are deleted once the
//	                checkpoint is durable)
//	ckpt-<seq>.tmp  checkpoint in progress (ignored and removed by Open)
//
// Record frame: 4-byte little-endian payload length, 4-byte CRC32 (IEEE)
// over the length bytes and the payload, then the payload. CRC covering the
// length field means a zero-filled tail never parses as an empty record.
//
// Recovery invariant: segments are fsynced before the log rotates past
// them, so only the highest segment can have a torn tail. Open truncates
// that tail at the last whole record, making the invariant true again for
// the next incarnation.

const (
	frameHeaderLen = 8
	// MaxRecordLen is the largest payload Append accepts. Recovery's
	// torn-tail scan rejects any frame claiming more as garbage, so the
	// bound must hold at write time: a larger record would be durably
	// written yet unparseable on restart.
	MaxRecordLen = 64 << 20
	// maxCheckpointLen bounds checkpoint state instead of MaxRecordLen:
	// checkpoints serialize a whole memnode and legitimately outgrow any
	// per-record limit, so they get the full 32-bit length field.
	maxCheckpointLen = 1<<32 - 1

	segPrefix  = "wal-"
	segSuffix  = ".log"
	ckptPrefix = "ckpt-"
	tmpSuffix  = ".tmp"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrTooLarge is returned by Append and FinishCheckpoint when a payload
// exceeds its framing limit. Nothing is written and the log stays usable.
var ErrTooLarge = errors.New("wal: payload exceeds framing limit")

// Options configures a Log.
type Options struct {
	// NoFsync skips every fsync: group commit degrades to ordered buffered
	// writes. Data survives process crashes (the OS keeps the page cache)
	// but not machine crashes. The default (false) is fully durable.
	NoFsync bool
}

// Recovered is what Open found on disk.
type Recovered struct {
	// Checkpoint is the most recent durable checkpoint state, nil if none.
	Checkpoint []byte
	// Records are the redo records logged after the checkpoint, in append
	// order. The owner replays Checkpoint then Records to rebuild state.
	Records [][]byte
	// Truncated reports that a torn/corrupt tail was dropped from the last
	// segment (expected after a mid-write crash; never after clean Close).
	Truncated bool
}

// Stats are cumulative log counters.
type Stats struct {
	Appends int64 // records appended
	Bytes   int64 // payload bytes appended
	Syncs   int64 // fsyncs issued (group commit amortizes these)
}

// Log is an append-only redo log with group commit. Safe for concurrent
// use: Append serializes records, Commit blocks until a record is durable,
// piggybacking concurrent committers on one fsync.
type Log struct {
	fs     FS
	noSync bool

	mu       sync.Mutex
	cond     *sync.Cond
	f        File   // guarded by mu; active segment
	seq      uint64 // guarded by mu; active segment number
	appended uint64 // guarded by mu; records appended (the last record's LSN)
	synced   uint64 // guarded by mu; records durable
	flushing bool   // guarded by mu; a group-commit leader's fsync is in flight
	failed   error  // guarded by mu; sticky first failure: the log is fail-stop
	closed   bool   // guarded by mu

	sinceCkpt int64                // guarded by mu; payload bytes appended since the last rotation
	stats     Stats                // guarded by mu
	scratch   [frameHeaderLen]byte // guarded by mu
}

// Open replays the directory's checkpoint and segments, repairs any torn
// tail, starts a fresh active segment, and returns the log plus the
// recovered state. A brand-new directory recovers to an empty state.
func Open(fs FS, opts Options) (*Log, *Recovered, error) {
	names, err := fs.List()
	if err != nil {
		return nil, nil, err
	}
	var segs, ckpts []uint64
	for _, n := range names {
		switch {
		case strings.HasSuffix(n, tmpSuffix):
			//lint:ignore durerr best-effort cleanup of an unfinished checkpoint; failure leaves garbage, never loses data
			_ = fs.Remove(n) // a checkpoint that never made it
		case strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix):
			var s uint64
			if _, err := fmt.Sscanf(n, segPrefix+"%016x"+segSuffix, &s); err == nil {
				segs = append(segs, s)
			}
		case strings.HasPrefix(n, ckptPrefix):
			var s uint64
			if _, err := fmt.Sscanf(n, ckptPrefix+"%016x", &s); err == nil {
				ckpts = append(ckpts, s)
			}
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	sort.Slice(ckpts, func(a, b int) bool { return ckpts[a] < ckpts[b] })

	rec := &Recovered{}
	// Newest parseable checkpoint wins; a torn one (crash before its
	// segment cleanup made it durable) falls back to its predecessor, whose
	// covered segments are then still present.
	var ckptSeq uint64
	for i := len(ckpts) - 1; i >= 0; i-- {
		state, ok, err := readCheckpoint(fs, ckpts[i])
		if err != nil {
			return nil, nil, err
		}
		if ok {
			rec.Checkpoint = state
			ckptSeq = ckpts[i]
			break
		}
	}

	// Replay segments at or after the checkpoint, oldest first. Only the
	// last segment may legally end mid-record.
	replay := make([]uint64, 0, len(segs))
	for _, s := range segs {
		if s >= ckptSeq {
			replay = append(replay, s)
		}
	}
	for i, s := range replay {
		last := i == len(replay)-1
		recs, valid, size, err := scanSegment(fs, segName(s), MaxRecordLen)
		if err != nil {
			return nil, nil, err
		}
		if valid < size {
			if !last {
				return nil, nil, fmt.Errorf("wal: segment %s corrupt at offset %d (not the final segment)", segName(s), valid)
			}
			if err := truncateSegment(fs, segName(s), valid, opts.NoFsync); err != nil {
				return nil, nil, err
			}
			rec.Truncated = true
		}
		rec.Records = append(rec.Records, recs...)
	}

	// Start a fresh active segment past everything on disk.
	next := ckptSeq
	if len(segs) > 0 && segs[len(segs)-1]+1 > next {
		next = segs[len(segs)-1] + 1
	}
	if next == 0 {
		next = 1
	}
	f, err := fs.Create(segName(next))
	if err != nil {
		return nil, nil, err
	}
	if err := fs.SyncDir(); err != nil {
		f.Close()
		return nil, nil, err
	}
	l := &Log{fs: fs, noSync: opts.NoFsync, seq: next, f: f}
	l.cond = sync.NewCond(&l.mu)

	// Clean up files a pre-crash checkpoint had already superseded but not
	// yet deleted.
	for _, s := range segs {
		if s < ckptSeq {
			//lint:ignore durerr best-effort cleanup of superseded segments; failure leaves garbage, never loses data
			_ = fs.Remove(segName(s))
		}
	}
	for _, s := range ckpts {
		if s < ckptSeq {
			//lint:ignore durerr best-effort cleanup of superseded checkpoints; failure leaves garbage, never loses data
			_ = fs.Remove(ckptName(s))
		}
	}
	return l, rec, nil
}

func segName(seq uint64) string  { return fmt.Sprintf(segPrefix+"%016x"+segSuffix, seq) }
func ckptName(seq uint64) string { return fmt.Sprintf(ckptPrefix+"%016x", seq) }

// frameCRC computes the record checksum over the length header and payload.
func frameCRC(lenBytes, payload []byte) uint32 {
	c := crc32.ChecksumIEEE(lenBytes)
	return crc32.Update(c, crc32.IEEETable, payload)
}

// scanSegment parses whole records from a file, returning them plus the
// offset of the first byte that is not part of a whole valid record and the
// file size. maxLen is the framing limit the writer enforced (MaxRecordLen
// for segments, maxCheckpointLen for checkpoints): any frame claiming more
// is a garbage length, not a record.
func scanSegment(fs FS, name string, maxLen int64) (recs [][]byte, valid, size int64, err error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	size, err = f.Size()
	if err != nil {
		return nil, 0, 0, err
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			return nil, 0, 0, err
		}
	}
	off := int64(0)
	for off+frameHeaderLen <= size {
		hdr := buf[off : off+frameHeaderLen]
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxLen || off+frameHeaderLen+n > size {
			break // torn or garbage length
		}
		payload := buf[off+frameHeaderLen : off+frameHeaderLen+n]
		if frameCRC(hdr[0:4], payload) != crc {
			break // bit rot or partially written record
		}
		recs = append(recs, payload)
		off += frameHeaderLen + n
	}
	return recs, off, size, nil
}

// truncateSegment drops a segment's torn tail.
func truncateSegment(fs FS, name string, valid int64, noSync bool) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(valid); err != nil {
		return err
	}
	if noSync {
		return nil
	}
	return f.Sync()
}

// readCheckpoint parses ckpt-<seq>. ok=false means the file is unreadable
// or fails its checksum (a torn checkpoint is skipped, not fatal).
func readCheckpoint(fs FS, seq uint64) (state []byte, ok bool, err error) {
	recs, valid, size, err := scanSegment(fs, ckptName(seq), maxCheckpointLen)
	if err != nil {
		return nil, false, nil // unreadable: treat like torn
	}
	if len(recs) != 1 || valid != size {
		return nil, false, nil
	}
	return recs[0], true, nil
}

// Append writes one record to the active segment and returns its LSN. The
// record is NOT durable until Commit(lsn) returns. Append order defines
// replay order, so callers append under whatever lock orders their state
// mutations. The payload is copied into the file before Append returns, so
// the caller may reuse it at once.
func (l *Log) Append(payload []byte) (uint64, error) {
	if int64(len(payload)) > MaxRecordLen {
		return 0, fmt.Errorf("%w: %d-byte record (max %d)", ErrTooLarge, len(payload), int64(MaxRecordLen))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint32(l.scratch[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.scratch[4:8], frameCRC(l.scratch[0:4], payload))
	if _, err := l.f.Write(l.scratch[:]); err != nil {
		return 0, l.failLocked(err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return 0, l.failLocked(err)
	}
	l.appended++
	l.sinceCkpt += int64(len(payload)) + frameHeaderLen
	l.stats.Appends++
	l.stats.Bytes += int64(len(payload))
	return l.appended, nil
}

// Commit blocks until the record at lsn is durable, sharing fsyncs between
// concurrent committers: whoever arrives while no flush is running becomes
// the leader and syncs everything appended so far; everyone else waits for
// a flush that covers their LSN.
func (l *Log) Commit(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if err := l.usableLocked(); err != nil {
			return err
		}
		if l.synced >= lsn {
			return nil
		}
		if l.flushing {
			l.cond.Wait()
			continue
		}
		l.flushing = true
		target := l.appended
		f := l.f
		l.mu.Unlock()
		var err error
		if !l.noSync {
			err = f.Sync()
		}
		l.mu.Lock()
		l.flushing = false
		if !l.noSync {
			l.stats.Syncs++
		}
		if err != nil {
			l.cond.Broadcast()
			return l.failLocked(err)
		}
		if target > l.synced {
			l.synced = target
		}
		l.cond.Broadcast()
	}
}

// AppendCommit appends one record and waits for it to be durable.
func (l *Log) AppendCommit(payload []byte) error {
	lsn, err := l.Append(payload)
	if err != nil {
		return err
	}
	return l.Commit(lsn)
}

// BeginCheckpoint rotates to a fresh segment and returns its sequence
// number (the checkpoint cut). The caller must capture its state snapshot
// atomically with this call — no record may sneak between snapshot and
// rotation — then finish with FinishCheckpoint(cut, encodedState). All
// records appended before the cut are made durable here, so the snapshot
// plus post-cut records is always a superset of what replay reconstructs.
func (l *Log) BeginCheckpoint() (cut uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Wait out an in-flight group-commit leader: it syncs the active
	// segment through a handle captured outside the lock, and the rotation
	// below must not close that handle under it.
	for {
		if err := l.usableLocked(); err != nil {
			return 0, err
		}
		if !l.flushing {
			break
		}
		l.cond.Wait()
	}
	if !l.noSync {
		if err := l.f.Sync(); err != nil {
			return 0, l.failLocked(err)
		}
		l.stats.Syncs++
	}
	l.synced = l.appended
	next := l.seq + 1
	f, err := l.fs.Create(segName(next))
	if err != nil {
		return 0, l.failLocked(err)
	}
	if err := l.fs.SyncDir(); err != nil {
		f.Close()
		return 0, l.failLocked(err)
	}
	l.f.Close()
	l.f = f
	l.seq = next
	l.sinceCkpt = 0
	l.cond.Broadcast()
	return next, nil
}

// FinishCheckpoint durably writes the checkpoint state for a cut returned
// by BeginCheckpoint, then deletes the segments and checkpoints it
// supersedes. Runs outside the log mutex: appends and commits proceed
// concurrently. A crash anywhere in here is safe — recovery falls back to
// the previous checkpoint until the new one's rename is durable.
func (l *Log) FinishCheckpoint(cut uint64, state []byte) error {
	if int64(len(state)) > maxCheckpointLen {
		// Not a poisoning failure: nothing was written, appends still work,
		// and recovery replays the untruncated log. The owner just cannot
		// compact until its state shrinks.
		return fmt.Errorf("%w: %d-byte checkpoint (max %d)", ErrTooLarge, len(state), int64(maxCheckpointLen))
	}
	tmp := ckptName(cut) + tmpSuffix
	f, err := l.fs.Create(tmp)
	if err != nil {
		return l.fail(err)
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(state)))
	binary.LittleEndian.PutUint32(hdr[4:8], frameCRC(hdr[0:4], state))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return l.fail(err)
	}
	if _, err := f.Write(state); err != nil {
		f.Close()
		return l.fail(err)
	}
	if !l.noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return l.fail(err)
		}
	}
	f.Close()
	if err := l.fs.Rename(tmp, ckptName(cut)); err != nil {
		return l.fail(err)
	}
	if err := l.fs.SyncDir(); err != nil {
		return l.fail(err)
	}
	// The new checkpoint is durable: everything it covers can go. Deletion
	// failures are harmless (Open re-runs the sweep).
	names, err := l.fs.List()
	if err != nil {
		return nil
	}
	for _, n := range names {
		var s uint64
		if _, err := fmt.Sscanf(n, segPrefix+"%016x"+segSuffix, &s); err == nil && strings.HasPrefix(n, segPrefix) && s < cut {
			//lint:ignore durerr best-effort cleanup of segments behind the checkpoint; failure leaves garbage, never loses data
			_ = l.fs.Remove(n)
		}
		if _, err := fmt.Sscanf(n, ckptPrefix+"%016x", &s); err == nil && strings.HasPrefix(n, ckptPrefix) && !strings.HasSuffix(n, tmpSuffix) && s < cut {
			//lint:ignore durerr best-effort cleanup of superseded checkpoints; failure leaves garbage, never loses data
			_ = l.fs.Remove(n)
		}
	}
	return nil
}

// SinceCheckpoint returns the payload bytes appended since the last
// checkpoint cut (or since Open), the owner's auto-checkpoint trigger.
func (l *Log) SinceCheckpoint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceCkpt
}

// Stats returns cumulative counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Err returns the sticky failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Close syncs and closes the active segment. The log is unusable after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	// Same discipline as BeginCheckpoint: never close the segment under a
	// group-commit leader's in-flight sync.
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.failed == nil && !l.noSync {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.cond.Broadcast()
	return err
}

// usableLocked reports the sticky error state. Caller holds l.mu.
func (l *Log) usableLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return fmt.Errorf("wal: log failed: %w", l.failed)
	}
	return nil
}

// failLocked records the first failure. Caller holds l.mu.
func (l *Log) failLocked(err error) error {
	if l.failed == nil {
		l.failed = err
	}
	l.cond.Broadcast()
	return fmt.Errorf("wal: log failed: %w", err)
}

// fail is failLocked for paths that do not hold l.mu: it takes the lock.
func (l *Log) fail(err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failLocked(err)
}
