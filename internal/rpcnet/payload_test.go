package rpcnet

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
	"minuet/internal/wire"
)

// rawConn dials srv and sends the preamble of protocol version v.
func rawConn(t *testing.T, srv *Server, v byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte{'M', 'N', 'X', v}); err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	return conn
}

// rawCall writes one request frame with the given payload and reads the
// response frame.
func rawCall(t *testing.T, conn net.Conn, id uint64, payload []byte) (wire.FrameHeader, any, error) {
	t.Helper()
	frame := newFrame()
	frame.Write(payload) //nolint:errcheck
	var wmu sync.Mutex
	if err := writeFrameMux(conn, &wmu, id, 0, frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	hdr, p, err := readFrameMux(conn)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.ID != id {
		t.Fatalf("response id %d, want %d", hdr.ID, id)
	}
	body, herr, err := decodePayload(p)
	if err != nil {
		t.Fatalf("response payload: %v", err)
	}
	return hdr, body, herr
}

// TestSinfoniaMessagesUseTheirCodec: a Sinfonia message travels in its own
// codec, never as gob; any other type travels as gob.
func TestSinfoniaMessagesUseTheirCodec(t *testing.T) {
	b := wire.NewBuffer(0)
	if err := encodePayload(b, &sinfonia.StatsReq{}, nil); err != nil {
		t.Fatal(err)
	}
	want := wire.NewBuffer(0)
	sinfonia.EncodeMessage(want, &sinfonia.StatsReq{})
	if !bytes.Equal(b.Bytes(), want.Bytes()) {
		t.Fatalf("StatsReq payload %x, want %x", b.Bytes(), want.Bytes())
	}
	b = wire.NewBuffer(0)
	if err := encodePayload(b, &echoReq{N: 3}, nil); err != nil || b.Bytes()[0] != tagGob {
		t.Fatalf("echoReq payload %x, %v", b.Bytes(), err)
	}
}

// TestCorruptRequestFailsOneCall: a request payload that does not decode
// fails that call with an error response, and the connection goes on
// serving the next request.
func TestCorruptRequestFailsOneCall(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", sinfonia.NewMemnode(0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := rawConn(t, srv, wire.FrameVersion)

	stats := wire.NewBuffer(0)
	sinfonia.EncodeMessage(stats, &sinfonia.StatsReq{})
	for i, p := range [][]byte{
		{0x7F},                           // unknown tag
		append(stats.Bytes(), 0),         // trailing byte
		{tagError, 1, 0, 0, 0, 'x'},      // an error is not a request
		{tagGob, 0xDE, 0xAD, 0xBE, 0xEF}, // not gob
	} {
		hdr, body, herr := rawCall(t, conn, uint64(i), p)
		if herr == nil || !strings.Contains(herr.Error(), "bad request payload") || hdr.Flags&wire.FrameFlagError == 0 {
			t.Fatalf("payload %x: got %v, %v, flags %v", p, body, herr, hdr.Flags)
		}
	}
	_, body, herr := rawCall(t, conn, 99, stats.Bytes())
	if _, ok := body.(*sinfonia.StatsResp); herr != nil || !ok {
		t.Fatalf("after corrupt requests: %v, %v", body, herr)
	}
}

// TestOldVersionPreambleIsClosed: a peer speaking version 2 (gob payloads)
// or version 3 (mirrors as parallel lists in a state snapshot) is closed
// without a reply instead of having its frames misread.
func TestOldVersionPreambleIsClosed(t *testing.T) {
	client, srv := startEcho(t, netsim.HandlerFunc(func(req any) (any, error) {
		return &echoResp{N: req.(*echoReq).N}, nil
	}))
	for _, v := range []byte{2, 3} {
		conn := rawConn(t, srv, v)
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("version %d: want EOF from the server, got n=%d err=%v", v, n, err)
		}
		if resp, err := client.Call(0, &echoReq{N: 4}); err != nil || resp.(*echoResp).N != 4 {
			t.Fatalf("echo after refusing version %d: %v %v", v, resp, err)
		}
	}
}

// TestCallAllocBudget pins the allocations of one get-shaped loopback Call,
// client and server together: a one-read ExecCommitReq answered by a 4 KiB
// image. With a gob envelope built per frame it made 593.
func TestCallAllocBudget(t *testing.T) {
	img := bytes.Repeat([]byte{0xC4}, 4096)
	client, _ := startEcho(t, netsim.HandlerFunc(func(any) (any, error) {
		return &sinfonia.ExecResp{Reads: []sinfonia.ReadResult{{Data: img, Version: 3, Exists: true}}}, nil
	}))
	req := &sinfonia.ExecCommitReq{Txid: 1, Reads: []sinfonia.ReadItem{{Node: 0, Addr: 4096}}}
	call := func() {
		resp, err := client.Call(0, req)
		if r, ok := resp.(*sinfonia.ExecResp); err != nil || !ok || !bytes.Equal(r.Reads[0].Data, img) {
			t.Fatalf("call: %v %v", resp, err)
		}
	}
	call() // dial
	allocs := testing.AllocsPerRun(200, call)
	if allocs > 40 {
		t.Errorf("a get-shaped Call makes %.0f allocations, budget 40", allocs)
	}
	t.Logf("a get-shaped Call makes %.0f allocations", allocs)
}

// TestMultiImageFrameEncodesOnce pins the allocations of encoding a frame
// that carries many node images: a 16-leaf read response, as a snapshot scan
// fetches; a 64-write prepare, as a large batch sends; the backup mirror of
// that batch's commit; and a memnode's state snapshot. The encoders reserve
// their whole size up front, so the images are copied into the frame once;
// growing the buffer as it filled made 12, 17, 17 and 15 allocations.
func TestMultiImageFrameEncodesOnce(t *testing.T) {
	img := bytes.Repeat([]byte{0xC4}, 4096)
	resp := &sinfonia.ExecResp{}
	for range 16 {
		resp.Reads = append(resp.Reads, sinfonia.ReadResult{Data: img, Version: 7, Exists: true})
	}
	prep := &sinfonia.PrepareReq{Txid: 9, Participants: []sinfonia.NodeID{0, 1}}
	writes := func(n int) []sinfonia.WriteItem {
		var ws []sinfonia.WriteItem
		for i := range n {
			ws = append(ws, sinfonia.WriteItem{Addr: sinfonia.Addr(4096 * (i + 1)), Version: uint64(i + 1), Data: img})
		}
		return ws
	}
	for i := range 64 {
		prep.Writes = append(prep.Writes, sinfonia.WriteItem{Node: 1, Addr: sinfonia.Addr(4096 * (i + 1)), Data: img})
	}
	// Record kinds 1, 2 and 3 are apply, stage and resolve.
	redo := &sinfonia.ReplicaRedoReq{From: 1, Rec: sinfonia.RedoRecord{Kind: 1, Txid: 9, Writes: writes(64)}}
	snap := &sinfonia.SnapshotStateResp{
		Records: []sinfonia.RedoRecord{
			{Kind: 3, Txid: 4, Flag: true},
			{Kind: 1, Writes: writes(16)},
			{Kind: 2, Txid: 10, Writes: writes(8), Locks: []sinfonia.Addr{4096, 8192}, Participants: []sinfonia.NodeID{0, 1}},
		},
		Mirrors: []sinfonia.ReplicaRedoReq{{From: 2, Rec: sinfonia.RedoRecord{Kind: 1, Writes: writes(16)}}},
	}
	for _, m := range []any{resp, prep, redo, snap} {
		var frame *wire.Buffer
		allocs := testing.AllocsPerRun(100, func() {
			frame = newFrame()
			if err := encodePayload(frame, m, nil); err != nil {
				t.Fatal(err)
			}
		})
		payload := frame.Bytes()[wire.FrameHeaderLen:]
		got, err := sinfonia.DecodeMessage(payload)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		var again wire.Buffer
		if !sinfonia.EncodeMessage(&again, got) || !bytes.Equal(again.Bytes(), payload) {
			t.Fatalf("%T: the frame does not round-trip", m)
		}
		if allocs > 5 {
			t.Errorf("encoding a %T frame makes %.0f allocations, budget 5", m, allocs)
		}
		t.Logf("encoding a %T frame makes %.0f allocations", m, allocs)
	}
}
