package sinfonia

import (
	"fmt"

	"minuet/internal/wire"
)

// The message codec. Every request and response a memnode handles has one
// binary encoding (docs/WIRE.md, "Payload"): a one-byte tag naming the
// message, then its fields on wire.Buffer, little-endian throughout. The
// TCP transport carries these bytes as a frame payload; the in-process
// transport passes the values themselves and never encodes.
//
// Each message has its own encodeX/decodeX pair, which the wiresym analyzer
// holds in step. The decoders share the rules of decodeRedo: every count is
// bounded by the input that remains (wire.Reader.Count) before anything is
// sized by it, images are copied out of the input, and only the canonical
// encoding is accepted (known tag, vote and status, flag bytes 0 or 1, no
// trailing bytes), so EncodeMessage(DecodeMessage(p)) reproduces p. A zero
// count and an empty image decode to nil.

// Message tags. Tags 0xF0 and up are left to the transport for payloads
// that are not Sinfonia messages (rpcnet's handler errors and gob values).
const (
	tagExecCommitReq = iota + 1
	tagPrepareReq
	tagExecResp
	tagCommitReq
	tagAbortReq
	tagAck
	tagReplicaRedoReq
	tagScanReq
	tagScanResp
	tagStatsReq
	tagStatsResp
	tagSnapshotStateReq
	tagSnapshotStateResp
	tagInDoubtReq
	tagInDoubtResp
	tagTxnStatusReq
	tagTxnStatusResp
)

// EncodeMessage appends m's tag and encoding to b. It reports false, and
// appends nothing, when m is not a pointer to a Sinfonia message.
func EncodeMessage(b *wire.Buffer, m any) bool {
	switch m := m.(type) {
	case *ExecCommitReq:
		b.U8(tagExecCommitReq)
		encodeExecCommitReq(b, m)
	case *PrepareReq:
		b.U8(tagPrepareReq)
		encodePrepareReq(b, m)
	case *ExecResp:
		b.U8(tagExecResp)
		encodeExecResp(b, m)
	case *CommitReq:
		b.U8(tagCommitReq)
		b.U64(m.Txid)
	case *AbortReq:
		b.U8(tagAbortReq)
		b.U64(m.Txid)
	case *Ack:
		b.U8(tagAck)
	case *ReplicaRedoReq:
		b.U8(tagReplicaRedoReq)
		encodeReplicaRedoReq(b, m)
	case *ScanReq:
		b.U8(tagScanReq)
		encodeScanReq(b, m)
	case *ScanResp:
		b.U8(tagScanResp)
		encodeScanResp(b, m)
	case *StatsReq:
		b.U8(tagStatsReq)
	case *StatsResp:
		b.U8(tagStatsResp)
		encodeStatsResp(b, m)
	case *SnapshotStateReq:
		b.U8(tagSnapshotStateReq)
	case *SnapshotStateResp:
		b.U8(tagSnapshotStateResp)
		encodeSnapshotStateResp(b, m)
	case *InDoubtReq:
		b.U8(tagInDoubtReq)
		b.U64(uint64(m.MinAgeNanos))
	case *InDoubtResp:
		b.U8(tagInDoubtResp)
		encodeInDoubtResp(b, m)
	case *TxnStatusReq:
		b.U8(tagTxnStatusReq)
		b.U64(m.Txid)
	case *TxnStatusResp:
		b.U8(tagTxnStatusResp)
		b.U8(m.Status)
	default:
		return false
	}
	return true
}

// DecodeMessage decodes one message written by EncodeMessage; p must hold
// exactly that message. The result is a pointer, as the memnode's handler
// and the client's callers expect.
func DecodeMessage(p []byte) (any, error) {
	r := wire.NewReader(p)
	var m any
	var bad bool // a known tag with a non-canonical field
	switch tag := r.U8(); tag {
	case tagExecCommitReq:
		m, bad = decodeExecCommitReq(r)
	case tagPrepareReq:
		m, bad = decodePrepareReq(r)
	case tagExecResp:
		m, bad = decodeExecResp(r)
	case tagCommitReq:
		m = &CommitReq{Txid: r.U64()}
	case tagAbortReq:
		m = &AbortReq{Txid: r.U64()}
	case tagAck:
		m = &Ack{}
	case tagReplicaRedoReq:
		m, bad = decodeReplicaRedoReq(r)
	case tagScanReq:
		m = decodeScanReq(r)
	case tagScanResp:
		m = decodeScanResp(r)
	case tagStatsReq:
		m = &StatsReq{}
	case tagStatsResp:
		m = decodeStatsResp(r)
	case tagSnapshotStateReq:
		m = &SnapshotStateReq{}
	case tagSnapshotStateResp:
		m, bad = decodeSnapshotStateResp(r)
	case tagInDoubtReq:
		m = &InDoubtReq{MinAgeNanos: int64(r.U64())}
	case tagInDoubtResp:
		m = decodeInDoubtResp(r)
	case tagTxnStatusReq:
		m = &TxnStatusReq{Txid: r.U64()}
	case tagTxnStatusResp:
		st := r.U8()
		m, bad = &TxnStatusResp{Status: st}, st > TxnAborted
	default:
		if r.Err() == nil {
			return nil, fmt.Errorf("sinfonia: unknown message tag %d", tag)
		}
	}
	switch {
	case r.Err() != nil:
		return nil, fmt.Errorf("sinfonia: corrupt message: %w", r.Err())
	case bad:
		return nil, fmt.Errorf("sinfonia: corrupt %T: field out of range", m)
	case r.Remaining() != 0:
		return nil, fmt.Errorf("sinfonia: %d trailing bytes after %T", r.Remaining(), m)
	}
	return m, nil
}

// flagByte is the one encoding of a bool; decoders refuse any byte above 1.
func flagByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// sliceOf reads an element count, bounded by the input that remains at
// minElem encoded bytes per element (wire.Reader.Count), and returns that
// many zero elements, nil for none. Every decoded slice is sized here, so
// no decoder can size one by a raw count.
func sliceOf[T any](r *wire.Reader, minElem int) []T {
	n := r.Count(minElem)
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// image reads a Bytes32 image, nil when empty.
func image(r *wire.Reader) []byte {
	if p := r.Bytes32(); len(p) > 0 {
		return p
	}
	return nil
}

// itemsLen is the encoded size of what encodeItems appends.
func itemsLen(cmp []CompareItem, rd []ReadItem, wr []WriteItem) int {
	n := 12 + 20*len(cmp) + 12*len(rd) + 16*len(wr) // counts, fixed fields
	for i := range wr {
		n += len(wr[i].Data)
	}
	return n
}

// encodeItems appends a minitransaction's compares, reads and writes. The
// caller reserves room for them (itemsLen), so a request carrying many
// images is copied into its frame once.
func encodeItems(b *wire.Buffer, cmp []CompareItem, rd []ReadItem, wr []WriteItem) {
	b.U32(uint32(len(cmp)))
	for i := range cmp {
		b.U32(uint32(cmp[i].Node))
		b.U64(uint64(cmp[i].Addr))
		b.U64(cmp[i].Version)
	}
	b.U32(uint32(len(rd)))
	for i := range rd {
		b.U32(uint32(rd[i].Node))
		b.U64(uint64(rd[i].Addr))
	}
	b.U32(uint32(len(wr)))
	for i := range wr {
		b.U32(uint32(wr[i].Node))
		b.U64(uint64(wr[i].Addr))
		b.Bytes32(wr[i].Data)
	}
}

// decodeItems reads what encodeItems wrote.
func decodeItems(r *wire.Reader) (cmp []CompareItem, rd []ReadItem, wr []WriteItem) {
	cmp = sliceOf[CompareItem](r, 20) // node + addr + version
	for i := range cmp {
		cmp[i].Node = NodeID(r.U32())
		cmp[i].Addr = Addr(r.U64())
		cmp[i].Version = r.U64()
	}
	rd = sliceOf[ReadItem](r, 12) // node + addr
	for i := range rd {
		rd[i].Node = NodeID(r.U32())
		rd[i].Addr = Addr(r.U64())
	}
	wr = sliceOf[WriteItem](r, 16) // node + addr + length prefix
	for i := range wr {
		wr[i].Node = NodeID(r.U32())
		wr[i].Addr = Addr(r.U64())
		wr[i].Data = image(r)
	}
	return cmp, rd, wr
}

// encodeNodes appends a participant list.
func encodeNodes(b *wire.Buffer, nodes []NodeID) {
	b.U32(uint32(len(nodes)))
	for _, n := range nodes {
		b.U32(uint32(n))
	}
}

// decodeNodes reads what encodeNodes wrote.
func decodeNodes(r *wire.Reader) []NodeID {
	nodes := sliceOf[NodeID](r, 4)
	for i := range nodes {
		nodes[i] = NodeID(r.U32())
	}
	return nodes
}

func encodeExecCommitReq(b *wire.Buffer, m *ExecCommitReq) {
	b.Grow(8 + itemsLen(m.Compares, m.Reads, m.Writes) + 1)
	b.U64(m.Txid)
	encodeItems(b, m.Compares, m.Reads, m.Writes)
	b.U8(flagByte(m.Blocking))
}

func decodeExecCommitReq(r *wire.Reader) (*ExecCommitReq, bool) {
	m := &ExecCommitReq{Txid: r.U64()}
	m.Compares, m.Reads, m.Writes = decodeItems(r)
	blocking := r.U8()
	m.Blocking = blocking == 1
	return m, blocking > 1
}

func encodePrepareReq(b *wire.Buffer, m *PrepareReq) {
	b.Grow(8 + itemsLen(m.Compares, m.Reads, m.Writes) + 1 + 4 + 4*len(m.Participants))
	b.U64(m.Txid)
	encodeItems(b, m.Compares, m.Reads, m.Writes)
	b.U8(flagByte(m.Blocking))
	encodeNodes(b, m.Participants)
}

func decodePrepareReq(r *wire.Reader) (*PrepareReq, bool) {
	m := &PrepareReq{Txid: r.U64()}
	m.Compares, m.Reads, m.Writes = decodeItems(r)
	blocking := r.U8()
	m.Blocking = blocking == 1
	m.Participants = decodeNodes(r)
	return m, blocking > 1
}

// encodeExecResp reserves the whole response before appending it, so the
// images of a many-leaf read are copied into the frame once.
func encodeExecResp(b *wire.Buffer, m *ExecResp) {
	n := 1 + 4 + 4*len(m.Failed) + 4 + 13*len(m.Reads) // vote, counts, fixed fields
	for i := range m.Reads {
		n += len(m.Reads[i].Data)
	}
	b.Grow(n)
	b.U8(uint8(m.Vote))
	b.U32(uint32(len(m.Failed)))
	for _, i := range m.Failed {
		b.U32(uint32(i))
	}
	b.U32(uint32(len(m.Reads)))
	for i := range m.Reads {
		b.Bytes32(m.Reads[i].Data)
		b.U64(m.Reads[i].Version)
		b.U8(flagByte(m.Reads[i].Exists))
	}
}

func decodeExecResp(r *wire.Reader) (*ExecResp, bool) {
	m := &ExecResp{Vote: vote(r.U8())}
	bad := m.Vote > voteCompareFail
	m.Failed = sliceOf[int](r, 4)
	for i := range m.Failed {
		m.Failed[i] = int(r.U32())
	}
	m.Reads = sliceOf[ReadResult](r, 13) // length prefix + version + flag
	for i := range m.Reads {
		m.Reads[i].Data = image(r)
		m.Reads[i].Version = r.U64()
		exists := r.U8()
		m.Reads[i].Exists = exists == 1
		bad = bad || exists > 1
	}
	return m, bad
}

func encodeReplicaRedoReq(b *wire.Buffer, m *ReplicaRedoReq) {
	b.U32(uint32(m.From))
	encodeRedo(b, &m.Rec)
}

func decodeReplicaRedoReq(r *wire.Reader) (*ReplicaRedoReq, bool) {
	m := &ReplicaRedoReq{From: NodeID(r.U32())}
	rec, err := decodeRedo(r)
	m.Rec = rec
	return m, err != nil
}

func encodeScanReq(b *wire.Buffer, m *ScanReq) {
	b.U64(uint64(m.MinAddr))
	b.U64(uint64(m.MaxAddr))
	b.U64(uint64(m.PrefixLen))
}

func decodeScanReq(r *wire.Reader) *ScanReq {
	return &ScanReq{MinAddr: Addr(r.U64()), MaxAddr: Addr(r.U64()), PrefixLen: int(r.U64())}
}

func encodeScanResp(b *wire.Buffer, m *ScanResp) {
	b.U32(uint32(len(m.Items)))
	for i := range m.Items {
		b.U64(uint64(m.Items[i].Addr))
		b.U64(m.Items[i].Version)
		b.Bytes32(m.Items[i].Prefix)
	}
}

func decodeScanResp(r *wire.Reader) *ScanResp {
	m := &ScanResp{Items: sliceOf[ItemInfo](r, 20)} // addr + version + length prefix
	for i := range m.Items {
		m.Items[i].Addr = Addr(r.U64())
		m.Items[i].Version = r.U64()
		m.Items[i].Prefix = image(r)
	}
	return m
}

func encodeStatsResp(b *wire.Buffer, m *StatsResp) {
	b.U64(uint64(m.Items))
	b.U64(uint64(m.Commits))
	b.U64(uint64(m.Aborts))
	b.U64(uint64(m.BusyAborts))
	b.U64(uint64(m.Bytes))
}

func decodeStatsResp(r *wire.Reader) *StatsResp {
	return &StatsResp{
		Items:      int(r.U64()),
		Commits:    int64(r.U64()),
		Aborts:     int64(r.U64()),
		BusyAborts: int64(r.U64()),
		Bytes:      int64(r.U64()),
	}
}

func encodeSnapshotStateResp(b *wire.Buffer, m *SnapshotStateResp) {
	b.U32(uint32(len(m.Records)))
	for i := range m.Records {
		encodeRedo(b, &m.Records[i])
	}
	b.U32(uint32(len(m.Mirrors)))
	for i := range m.Mirrors {
		encodeReplicaRedoReq(b, &m.Mirrors[i])
	}
}

func decodeSnapshotStateResp(r *wire.Reader) (*SnapshotStateResp, bool) {
	m := &SnapshotStateResp{Records: sliceOf[RedoRecord](r, minRedoLen)}
	bad := false
	for i := range m.Records {
		rec, err := decodeRedo(r)
		m.Records[i] = rec
		bad = bad || err != nil
	}
	m.Mirrors = sliceOf[ReplicaRedoReq](r, 4+minRedoLen) // from + record
	for i := range m.Mirrors {
		mr, badMirror := decodeReplicaRedoReq(r)
		m.Mirrors[i] = *mr
		bad = bad || badMirror
	}
	return m, bad
}

func encodeInDoubtResp(b *wire.Buffer, m *InDoubtResp) {
	b.U32(uint32(len(m.Txns)))
	for i := range m.Txns {
		b.U64(m.Txns[i].Txid)
		encodeNodes(b, m.Txns[i].Participants)
		b.U64(uint64(m.Txns[i].AgeNanos))
	}
}

func decodeInDoubtResp(r *wire.Reader) *InDoubtResp {
	m := &InDoubtResp{Txns: sliceOf[InDoubtInfo](r, 20)} // txid + count + age
	for i := range m.Txns {
		m.Txns[i].Txid = r.U64()
		m.Txns[i].Participants = decodeNodes(r)
		m.Txns[i].AgeNanos = int64(r.U64())
	}
	return m
}
