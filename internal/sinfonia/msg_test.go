package sinfonia

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"minuet/internal/wire"
)

func encodeMsg(t testing.TB, m any) []byte {
	t.Helper()
	b := wire.NewBuffer(0)
	if !EncodeMessage(b, m) {
		t.Fatalf("EncodeMessage(%T) = false", m)
	}
	return b.Bytes()
}

// messageSamples are the message shapes the round-trip test and the seed
// corpus cover, by name: every message, with empty and nil slices, a
// not-found read, a failed-compare vote, a stage and an apply mirror record,
// and a multi-record state snapshot. Each value is what decoding its
// encoding gives back (empty slices and images as nil), so the round trip
// compares with reflect.DeepEqual.
func messageSamples() map[string]any {
	img := bytes.Repeat([]byte{0xC4}, 4096)
	return map[string]any{
		"ExecCommitReq": &ExecCommitReq{
			Txid:     7,
			Compares: []CompareItem{{Node: 1, Addr: 512, Version: 3}},
			Reads:    []ReadItem{{Node: 1, Addr: 4096}, {Node: 1, Addr: 8192}},
			Writes:   []WriteItem{{Node: 1, Addr: 4096, Data: []byte("leaf")}, {Node: 1, Addr: 16384}},
			Blocking: true,
		},
		"ExecCommitReq-empty": &ExecCommitReq{Txid: 1},
		"PrepareReq": &PrepareReq{
			Txid:         9,
			Compares:     []CompareItem{{Node: 0, Addr: 512, Version: 1}},
			Writes:       []WriteItem{{Node: 0, Addr: 4096, Data: []byte("promised")}},
			Participants: []NodeID{0, 2},
		},
		"ExecResp": &ExecResp{Vote: voteOK, Reads: []ReadResult{
			{Data: img, Version: 12, Exists: true},
			{}, // not found
		}},
		"ExecResp-compare-failed": &ExecResp{Vote: voteCompareFail, Failed: []int{0, 2}},
		"ExecResp-busy":           &ExecResp{Vote: voteBusy},
		"CommitReq":               &CommitReq{Txid: 9},
		"AbortReq":                &AbortReq{Txid: 9},
		"Ack":                     &Ack{},
		"ReplicaRedoReq": &ReplicaRedoReq{From: 2, Rec: RedoRecord{
			Kind: recStage, Txid: 9,
			Writes:       []WriteItem{{Addr: 4096, Data: []byte("promised")}},
			Locks:        []Addr{512, 4096},
			Participants: []NodeID{0, 2},
		}},
		"ReplicaRedoReq-apply": &ReplicaRedoReq{From: 0, Rec: RedoRecord{
			Kind: recApply, Txid: 5, Flag: true,
			Writes: []WriteItem{{Addr: 4096, Version: 4, Data: []byte("image")}},
		}},
		"ScanReq":  &ScanReq{MinAddr: 4096, MaxAddr: 1 << 40, PrefixLen: 64},
		"ScanResp": &ScanResp{Items: []ItemInfo{{Addr: 4096, Version: 2, Prefix: []byte("hdr")}, {Addr: 8192, Version: 1}}},
		"StatsReq": &StatsReq{},
		"StatsResp": &StatsResp{
			Items: 3, Commits: 40, Aborts: 2, BusyAborts: 1, Bytes: 12288,
		},
		"SnapshotStateReq": &SnapshotStateReq{},
		"SnapshotStateResp": &SnapshotStateResp{
			Records: []RedoRecord{
				{Kind: recApply, Writes: []WriteItem{{Addr: 4096, Version: 3, Data: []byte("a")}, {Addr: 8192, Version: 1, Data: img}}},
				{Kind: recStage, Txid: 9, Writes: []WriteItem{{Addr: 12288, Data: []byte("b")}}, Locks: []Addr{12288}, Participants: []NodeID{0, 1}},
				{Kind: recStage, Txid: 10, Locks: []Addr{512}},
			},
			Mirrors: []ReplicaRedoReq{
				{From: 1, Rec: RedoRecord{Kind: recApply, Writes: []WriteItem{{Addr: 4096, Version: 5, Data: []byte("m")}, {Addr: 8192, Version: 6, Data: []byte{}}}}},
				{From: 1, Rec: RedoRecord{Kind: recStage, Txid: 11, Writes: []WriteItem{{Addr: 16384, Data: []byte("c")}}, Locks: []Addr{16384}, Participants: []NodeID{1, 2}}},
				{From: 2, Rec: RedoRecord{Kind: recApply}},
			},
		},
		"SnapshotStateResp-empty": &SnapshotStateResp{Records: []RedoRecord{{Kind: recApply}}},
		"InDoubtReq":              &InDoubtReq{MinAgeNanos: 5e9},
		"InDoubtResp": &InDoubtResp{Txns: []InDoubtInfo{
			{Txid: 9, Participants: []NodeID{0, 2}, AgeNanos: 6e9},
			{Txid: 11, AgeNanos: 1},
		}},
		"InDoubtResp-empty": &InDoubtResp{},
		"TxnStatusReq":      &TxnStatusReq{Txid: 9},
		"TxnStatusResp":     &TxnStatusResp{Status: TxnAborted},
	}
}

// TestMessageRoundTrip: every sample decodes to itself, and re-encoding
// reproduces its bytes.
func TestMessageRoundTrip(t *testing.T) {
	for name, m := range messageSamples() {
		p := encodeMsg(t, m)
		got, err := DecodeMessage(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%s: decode(encode(m)) = %+v, want %+v", name, got, m)
		}
		if again := encodeMsg(t, got); !bytes.Equal(again, p) {
			t.Fatalf("%s: re-encoding differs", name)
		}
	}
}

// TestEmptySlicesDecodeNil: empty and nil slices and images encode alike and
// decode to nil, which is what every caller saw before the explicit codec.
func TestEmptySlicesDecodeNil(t *testing.T) {
	empty := &ExecCommitReq{Compares: []CompareItem{}, Reads: []ReadItem{}, Writes: []WriteItem{{Data: []byte{}}}}
	none := &ExecCommitReq{Writes: []WriteItem{{}}}
	p := encodeMsg(t, empty)
	if !bytes.Equal(p, encodeMsg(t, none)) {
		t.Fatal("empty and nil slices encode differently")
	}
	got, err := DecodeMessage(p)
	if err != nil || !reflect.DeepEqual(got, none) {
		t.Fatalf("decode = %+v, %v; want %+v", got, err, none)
	}
}

// TestEncodeMessageRefusesForeignValues: a value that is not a pointer to a
// Sinfonia message is left to the transport.
func TestEncodeMessageRefusesForeignValues(t *testing.T) {
	for _, m := range []any{nil, struct{}{}, ExecCommitReq{}, "x"} {
		b := wire.NewBuffer(0)
		if EncodeMessage(b, m) || b.Len() != 0 {
			t.Errorf("EncodeMessage(%#v) accepted it", m)
		}
	}
}

// TestDecodeMessageRejects: only the canonical encoding of a known message
// decodes.
func TestDecodeMessageRejects(t *testing.T) {
	resp := encodeMsg(t, &ExecResp{Reads: []ReadResult{{Data: []byte("x"), Exists: true}}})
	cases := map[string][]byte{
		"empty":          nil,
		"unknown tag":    {0x7F},
		"transport tag":  {0xFF, 1, 2},
		"truncated":      resp[:len(resp)-3],
		"trailing bytes": append(bytes.Clone(resp), 0),
		"unknown vote":   append([]byte{tagExecResp, byte(voteCompareFail) + 1}, resp[2:]...),
		"exists flag 2":  append(bytes.Clone(resp[:len(resp)-1]), 2),
		"blocking 2":     append(encodeMsg(t, &ExecCommitReq{})[:1+8+12], 2),
		"bad status":     {tagTxnStatusResp, TxnAborted + 1},
		"bad redo kind":  append([]byte{tagReplicaRedoReq, 0, 0, 0, 0, 9}, make([]byte, minRedoLen-1)...),
		"huge count":     {tagScanResp, 0xFF, 0xFF, 0xFF, 0xFF},
	}
	for name, p := range cases {
		if m, err := DecodeMessage(p); err == nil {
			t.Errorf("%s: decoded %+v", name, m)
		}
	}
	if _, err := DecodeMessage([]byte{0x7F}); err == nil || !strings.Contains(err.Error(), "unknown message tag") {
		t.Errorf("unknown tag: %v", err)
	}
}

// FuzzMessage fuzzes the decoder of every message the TCP transport carries,
// which reads bytes straight off a socket. Whatever it accepts must
// re-encode to exactly the bytes it read (one canonical form), and decode
// again to the same value. The seed corpus in testdata/fuzz/FuzzMessage
// holds one encoded sample per message tag and runs in every `go test`;
// TestFuzzMessageCorpus keeps it in step with the encoder.
func FuzzMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeMessage(p)
		if err != nil {
			return
		}
		b := wire.NewBuffer(0)
		if !EncodeMessage(b, m) {
			t.Fatalf("decoded %T does not encode", m)
		}
		if !bytes.Equal(b.Bytes(), p) {
			t.Fatalf("re-encoding differs from the %d bytes decoded:\n got %x\nwant %x", len(p), b.Bytes(), p)
		}
		again, err := DecodeMessage(b.Bytes())
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("decode(encode(m)) = %+v, %v; want %+v", again, err, m)
		}
	})
}

// messageCorpus is the seed corpus: one sample per message tag, by tag name.
func messageCorpus(t testing.TB) map[string][]byte {
	out := make(map[string][]byte)
	for name, m := range messageSamples() {
		if !strings.Contains(name, "-") {
			out[name] = encodeMsg(t, m)
		}
	}
	return out
}

// TestFuzzMessageCorpus checks that the checked-in seed corpus still holds
// the encodings of the samples it was made from, one per message tag.
// Regenerate with
//
//	go test ./internal/sinfonia -run TestFuzzMessageCorpus -update
func TestFuzzMessageCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzMessage")
	corpus := messageCorpus(t)
	tags := make(map[byte]bool)
	for name, p := range corpus {
		tags[p[0]] = true
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", p)
		path := filepath.Join(dir, name)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s is stale: the encoder no longer produces it (rerun with -update)", path)
		}
	}
	if len(tags) != tagTxnStatusResp {
		t.Errorf("the corpus covers %d message tags, want all %d", len(tags), tagTxnStatusResp)
	}
}
