// Package rpcnet is a real TCP transport for Minuet, interchangeable with
// the in-process simulator: it implements netsim.Transport on the client
// side and serves any netsim.Handler (normally a Sinfonia memnode) on the
// server side.
//
// The transport is pipelined and multiplexed: many requests share one
// connection, each frame carries a request id, and responses complete
// asynchronously in whatever order the server finishes them. A client keeps
// a small per-peer connection budget (ConnsPerPeer) and bounds the in-flight
// requests per connection (Window); when every slot is taken, callers queue
// for up to QueueWait and then fail with ErrBackpressure. Payloads are
// gob-encoded envelopes. This is the only protocol: a connection that does
// not open with the frame preamble is closed. See docs/WIRE.md for the wire
// contract and internal/wire for the frame header codec.
//
// cmd/minuet-server and cmd/minuet-load use this package to run a memnode
// cluster as separate OS processes; internal/prochost spawns and babysits
// such clusters for tests and load drivers.
package rpcnet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"minuet/internal/sinfonia"
	"minuet/internal/wire"
)

func init() {
	// Register every wire type that can cross the connection. Applications
	// with custom RPC types register them via gob.Register themselves.
	gob.Register(&sinfonia.ExecCommitReq{})
	gob.Register(&sinfonia.PrepareReq{})
	gob.Register(&sinfonia.ExecResp{})
	gob.Register(&sinfonia.CommitReq{})
	gob.Register(&sinfonia.AbortReq{})
	gob.Register(&sinfonia.Ack{})
	gob.Register(&sinfonia.ReplicaRedoReq{})
	gob.Register(&sinfonia.ScanReq{})
	gob.Register(&sinfonia.ScanResp{})
	gob.Register(&sinfonia.SnapshotStateReq{})
	gob.Register(&sinfonia.SnapshotStateResp{})
	gob.Register(&sinfonia.StatsReq{})
	gob.Register(&sinfonia.StatsResp{})
	gob.Register(&sinfonia.InDoubtReq{})
	gob.Register(&sinfonia.InDoubtResp{})
	gob.Register(&sinfonia.TxnStatusReq{})
	gob.Register(&sinfonia.TxnStatusResp{})
}

// ErrBackpressure is returned when a call could not acquire an in-flight
// window slot within the client's QueueWait: every connection to the peer
// is running at its full pipelining window. The request was never sent.
var ErrBackpressure = errors.New("rpcnet: in-flight window full")

// envelope is the gob payload of every frame: a request or a response.
type envelope struct {
	Body any
	Err  string
}

// encodeEnvelope gob-encodes e.
func encodeEnvelope(e *envelope) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeEnvelope decodes a frame payload written by encodeEnvelope.
func decodeEnvelope(p []byte) (*envelope, error) {
	var e envelope
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

// writeFrameMux writes one multiplexed frame (header + payload) as a single
// conn.Write so concurrent writers never interleave bytes; wmu serializes
// the call.
func writeFrameMux(conn net.Conn, wmu *sync.Mutex, id uint64, flags wire.FrameFlags, payload []byte) error {
	if len(payload) > wire.MaxFramePayload {
		return fmt.Errorf("rpcnet: frame payload too large: %d", len(payload))
	}
	hdr := wire.FrameHeader{ID: id, Flags: flags, Length: uint32(len(payload))}
	buf := hdr.AppendFrameHeader(make([]byte, 0, wire.FrameHeaderLen+len(payload)))
	buf = append(buf, payload...)
	wmu.Lock()
	defer wmu.Unlock()
	_, err := conn.Write(buf)
	return err
}

// readFrameMux reads one multiplexed frame.
func readFrameMux(conn net.Conn) (wire.FrameHeader, []byte, error) {
	var hb [wire.FrameHeaderLen]byte
	if _, err := io.ReadFull(conn, hb[:]); err != nil {
		return wire.FrameHeader{}, nil, err
	}
	hdr, err := wire.ParseFrameHeader(hb[:])
	if err != nil {
		return wire.FrameHeader{}, nil, err
	}
	payload := make([]byte, hdr.Length)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return wire.FrameHeader{}, nil, err
	}
	return hdr, payload, nil
}
