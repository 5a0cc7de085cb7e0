package sinfonia

import (
	"errors"

	"minuet/internal/netsim"
	"minuet/internal/wire"
)

// One redo stream. A memnode's replicated state — what a backup mirrors and
// a log recovers — is a state value, and every change to it is one
// RedoRecord. The primary assigns versions (applyWritesLocked) and emits the
// record; the WAL appends the record's encoding and the backup receives the
// record itself in a ReplicaRedoReq. Everything that rebuilds a state from
// records — log replay and checkpoint load in OpenDurable, the backup
// handler, SeedReplica, PromoteReplica — calls redoLocked, so the version
// guard on images and the resolved-transaction fence on stages exist once.

// Record kinds.
const (
	recApply   = 1 // committed writes (one-phase, or phase two of a stage)
	recStage   = 2 // prepared distributed transaction
	recResolve = 3 // phase-two outcome without writes (abort, empty commit)
)

// RedoRecord is one change to a memnode's replicated state. Its slices are
// install-once like item.data: whoever hands a record to redoLocked gives
// them up and never writes them again, since a stage is kept as the record
// itself.
type RedoRecord struct {
	Kind uint8 // recApply, recStage or recResolve
	Txid uint64
	// Flag qualifies the kind. Apply: the writes are phase two of a staged
	// transaction, so redo also clears the stage and fences the outcome.
	// Resolve: the transaction aborted (otherwise it committed with nothing
	// to write). Stage: unused.
	Flag bool
	// Writes are the images installed (apply) or promised (stage); their
	// Node is ignored.
	Writes []WriteItem
	// Locks is a stage's full lock set: compare- and read-only addresses
	// lock too, so the writes alone would under-lock after a restart or a
	// promotion. Participants is the list coordinator recovery needs. Both
	// are empty in the other kinds.
	Locks        []Addr
	Participants []NodeID
}

// ReplicaRedoReq carries one redo record from primary From to its backup,
// before the primary acknowledges the change. Applies carry the versions the
// primary assigned, so the backup converges under the per-address version
// guard whatever the arrival order.
type ReplicaRedoReq struct {
	From NodeID
	Rec  RedoRecord
}

var errBadRecord = errors.New("sinfonia: corrupt redo record")

// minRedoLen is the encoding of a record with no writes, locks or
// participants: kind, txid, flag and three zero counts.
const minRedoLen = 1 + 8 + 1 + 4 + 4 + 4

// encodeRedo appends rec's encoding (docs/WIRE.md, "Redo record"). The
// layout is the same for every kind, so a log record, a checkpoint entry and
// whatever is added to the record later go through this one function and its
// twin below; the wiresym analyzer checks the two stay in step.
func encodeRedo(b *wire.Buffer, rec *RedoRecord) {
	b.U8(rec.Kind)
	b.U64(rec.Txid)
	b.U8(flagByte(rec.Flag))
	b.U32(uint32(len(rec.Writes)))
	for i := range rec.Writes {
		b.U64(uint64(rec.Writes[i].Addr))
		b.U64(rec.Writes[i].Version)
		b.Bytes32(rec.Writes[i].Data)
	}
	b.U32(uint32(len(rec.Locks)))
	for _, a := range rec.Locks {
		b.U64(uint64(a))
	}
	encodeNodes(b, rec.Participants)
}

// redoLen is the size of rec's encoding. Every encoder of a redo record
// reserves it before appending, so the record's images are copied once.
func redoLen(rec *RedoRecord) int {
	n := minRedoLen + 20*len(rec.Writes) + 8*len(rec.Locks) + 4*len(rec.Participants)
	for i := range rec.Writes {
		n += len(rec.Writes[i].Data)
	}
	return n
}

// decodeRedo reads one record. Element counts are bounded by the input that
// remains before anything is sized by them, images are copied out of the
// input, and only the canonical encoding is accepted (known kind, flag 0 or
// 1), so encodeRedo(decodeRedo(p)) reproduces p.
func decodeRedo(r *wire.Reader) (RedoRecord, error) {
	var rec RedoRecord
	rec.Kind = r.U8()
	rec.Txid = r.U64()
	flag := r.U8()
	rec.Flag = flag == 1
	rec.Writes = sliceOf[WriteItem](r, 20) // addr + version + length prefix
	for i := range rec.Writes {
		rec.Writes[i].Addr = Addr(r.U64())
		rec.Writes[i].Version = r.U64()
		rec.Writes[i].Data = r.Bytes32()
	}
	rec.Locks = sliceOf[Addr](r, 8)
	for i := range rec.Locks {
		rec.Locks[i] = Addr(r.U64())
	}
	rec.Participants = decodeNodes(r)
	if r.Err() != nil || rec.Kind < recApply || rec.Kind > recResolve || flag > 1 {
		return RedoRecord{}, errBadRecord
	}
	return rec, nil
}

// state is the part of a memnode that redo records change: the primary's own
// copy lives in Memnode, a backup keeps one per primary it mirrors, and a
// checkpoint is one written out.
type state struct {
	items    map[Addr]*item     // guarded by mu
	staged   map[uint64]*staged // guarded by mu; txid -> prepared, unresolved transaction
	outcomes *outcomeLog        // guarded by mu; resolved distributed txns (recovery fencing)
	bytes    int64              // guarded by mu; sum of len(item.data), for StatsResp.Bytes
}

func newState() state {
	return state{
		items:    make(map[Addr]*item),
		staged:   make(map[uint64]*staged),
		outcomes: newOutcomeLog(8192),
	}
}

// putLocked replaces the image at addr, whose current item the caller has
// already looked up (cur, nil when addr holds nothing), keeping the byte
// count. data is installed as is (see item).
func (s *state) putLocked(cur *item, addr Addr, version uint64, data []byte) {
	if cur == nil {
		cur = &item{}
		s.items[addr] = cur
	}
	s.bytes += int64(len(data)) - int64(len(cur.data))
	cur.data, cur.version = data, version
}

// redoLocked applies one record. It is idempotent and tolerates any arrival
// order, which is what lets one function serve a log replayed twice, mirror
// messages racing each other, and a state snapshot merged into a live mirror:
//
//   - an image is installed only over an older version (versions increase
//     monotonically at the primary), so an acknowledged apply is reflected at
//     once and a late or repeated one changes nothing;
//   - a stage is installed only while its transaction is unresolved here, so
//     a stage that arrives after the resolve — a re-mirror or a state
//     snapshot racing phase two, a record replayed over a checkpoint that
//     already holds the outcome — cannot resurrect the prepare, whose stale
//     writes a later promotion could otherwise commit over newer data.
//
// Locks are not part of the state: a node that starts serving a redone state
// retakes them with relockStagedLocked.
func (s *state) redoLocked(rec *RedoRecord) {
	switch rec.Kind {
	case recApply:
		for i := range rec.Writes {
			w := &rec.Writes[i]
			if cur := s.items[w.Addr]; cur == nil || cur.version < w.Version {
				s.putLocked(cur, w.Addr, w.Version, w.Data)
			}
		}
		if rec.Flag {
			delete(s.staged, rec.Txid)
			s.outcomes.record(rec.Txid, TxnCommitted)
		}
	case recStage:
		if _, resolved := s.outcomes.get(rec.Txid); resolved {
			return
		}
		// The clock starts over for a redone prepare: the recovery
		// coordinator leaves it alone for a full MinAge, so a coordinator
		// that is still alive gets first shot at phase two.
		s.staged[rec.Txid] = &staged{rec: *rec, preparedAt: netsim.CurrentClock().Now()}
	case recResolve:
		delete(s.staged, rec.Txid)
		status := TxnCommitted
		if rec.Flag {
			status = TxnAborted
		}
		s.outcomes.record(rec.Txid, status)
	}
}

// snapshotLocked returns s as the shortest record stream that rebuilds it:
// with outcomes, one resolve per remembered outcome, oldest first; then one
// apply holding every item, and one stage per prepared transaction. The
// records share s's images and slices.
func (s *state) snapshotLocked(outcomes bool) []RedoRecord {
	var recs []RedoRecord
	if outcomes {
		for _, txid := range s.outcomes.order {
			recs = append(recs, RedoRecord{Kind: recResolve, Txid: txid, Flag: s.outcomes.m[txid] == TxnAborted})
		}
	}
	all := RedoRecord{Kind: recApply, Writes: make([]WriteItem, 0, len(s.items))}
	for a, it := range s.items {
		all.Writes = append(all.Writes, WriteItem{Addr: a, Version: it.version, Data: it.data})
	}
	recs = append(recs, all)
	for _, st := range s.staged {
		recs = append(recs, st.rec)
	}
	return recs
}
