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
// for up to QueueWait and then fail with ErrBackpressure. A payload is one
// tagged value: a Sinfonia message in its own binary codec
// (sinfonia.EncodeMessage), a handler error, or — for a type sinfonia does
// not define, which its application registers with gob itself — a gob value.
// This is the only protocol: a connection that does not open with the frame
// preamble is closed. See docs/WIRE.md for the wire contract and
// internal/wire for the frame header codec.
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

// ErrBackpressure is returned when a call could not acquire an in-flight
// window slot within the client's QueueWait: every connection to the peer
// is running at its full pipelining window. The request was never sent.
var ErrBackpressure = errors.New("rpcnet: in-flight window full")

// Payload tags the transport adds to the Sinfonia message tags, from the
// range sinfonia leaves free.
const (
	tagError = 0xFE // a handler error: its message, Bytes32
	tagGob   = 0xFF // a value of a type sinfonia does not define, gob-encoded
)

// newFrame returns a buffer that starts with a reserved frame header, so a
// payload is encoded straight after it and writeFrameMux fills the header in
// place.
func newFrame() *wire.Buffer {
	var hdr [wire.FrameHeaderLen]byte
	b := wire.NewBuffer(256)
	b.Write(hdr[:]) //nolint:errcheck // a Buffer write cannot fail
	return b
}

// encodePayload appends one frame payload: herr under tagError when it is
// set, otherwise body — a Sinfonia message in its own codec, any other value
// under tagGob.
func encodePayload(b *wire.Buffer, body any, herr error) error {
	switch {
	case herr != nil:
		b.U8(tagError)
		b.Bytes32([]byte(herr.Error()))
	case sinfonia.EncodeMessage(b, body):
	default:
		b.U8(tagGob)
		return gob.NewEncoder(b).Encode(&body)
	}
	return nil
}

// decodePayload reads what encodePayload wrote: the body, or the handler
// error the payload carries. err reports a payload that could not be
// decoded.
func decodePayload(p []byte) (body any, herr error, err error) {
	switch {
	case len(p) > 0 && p[0] == tagError:
		r := wire.NewReader(p[1:])
		msg := r.Bytes32()
		if r.Err() != nil || r.Remaining() != 0 {
			return nil, nil, errors.New("rpcnet: corrupt error payload")
		}
		return nil, errors.New(string(msg)), nil
	case len(p) > 0 && p[0] == tagGob:
		err = gob.NewDecoder(bytes.NewReader(p[1:])).Decode(&body)
		return body, nil, err
	default:
		body, err = sinfonia.DecodeMessage(p)
		return body, nil, err
	}
}

// writeFrameMux fills in the header reserved at the front of frame (see
// newFrame) and writes the frame as a single conn.Write, so concurrent
// writers never interleave bytes; wmu serializes the call.
func writeFrameMux(conn net.Conn, wmu *sync.Mutex, id uint64, flags wire.FrameFlags, frame []byte) error {
	n := len(frame) - wire.FrameHeaderLen
	if n > wire.MaxFramePayload {
		return fmt.Errorf("rpcnet: frame payload too large: %d", n)
	}
	hdr := wire.FrameHeader{ID: id, Flags: flags, Length: uint32(n)}
	hdr.AppendFrameHeader(frame[:0])
	wmu.Lock()
	defer wmu.Unlock()
	_, err := conn.Write(frame)
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
