package wire

import "fmt"

// Multiplexed RPC frame header, the one framing rpcnet speaks.
//
// Many in-flight requests share one connection. A connection opens with a
// 4-byte preamble (three magic bytes plus the protocol version), after which
// every frame — in either direction — carries a fixed header holding the
// request id that pairs responses with requests, a flags byte, and the
// payload length. Responses may arrive in any order; the id is the only
// pairing. A peer that does not see the preamble closes the connection.
//
// The header is encoded little-endian like every other codec in this
// package. See docs/WIRE.md for the full wire contract.

// FrameVersion is the current multiplexed transport protocol version.
// Version 4 describes a state snapshot's backup mirrors as redo records;
// version 3 had the same message codec with mirrors as parallel lists, and
// version 2 carried gob envelopes.
const FrameVersion = 4

// FramePreambleLen is the length of the connection preamble.
const FramePreambleLen = 4

// FrameHeaderLen is the length of the fixed per-frame header: request id
// (8 bytes) + flags (1 byte) + payload length (4 bytes).
const FrameHeaderLen = 13

// MaxFramePayload bounds a single frame's payload. Frames above it are a
// protocol error and kill the connection.
const MaxFramePayload = 64 << 20

// framePreambleMagic is the first three bytes of the connection preamble.
var framePreambleMagic = [3]byte{'M', 'N', 'X'}

// FrameFlags is the per-frame flags byte.
type FrameFlags uint8

const (
	// FrameFlagError marks a response whose payload is an error rather
	// than a result.
	FrameFlagError FrameFlags = 1 << 0
)

// FrameHeader is the fixed header preceding every frame payload.
type FrameHeader struct {
	// ID pairs a response with its request. Request ids are allocated by
	// the connection's client side and are unique among that connection's
	// in-flight requests; the server echoes the id verbatim.
	ID uint64
	// Flags qualifies the payload (see FrameFlags).
	Flags FrameFlags
	// Length is the payload length in bytes, bounded by MaxFramePayload.
	Length uint32
}

// AppendFramePreamble appends the 4-byte connection preamble for the
// current protocol version.
func AppendFramePreamble(dst []byte) []byte {
	return append(dst, framePreambleMagic[0], framePreambleMagic[1], framePreambleMagic[2], FrameVersion)
}

// ParseFramePreamble checks a 4-byte connection preamble and returns the
// protocol version it names. Bytes that are not a preamble at all and a
// preamble naming a version other than FrameVersion are both errors: either
// way the connection cannot be served.
func ParseFramePreamble(p []byte) (version byte, err error) {
	if len(p) < FramePreambleLen {
		return 0, fmt.Errorf("wire: short frame preamble: %d bytes", len(p))
	}
	if p[0] != framePreambleMagic[0] || p[1] != framePreambleMagic[1] || p[2] != framePreambleMagic[2] {
		return 0, fmt.Errorf("wire: not a frame preamble: % x", p[:FramePreambleLen])
	}
	if p[3] != FrameVersion {
		return p[3], fmt.Errorf("wire: unsupported frame protocol version %d (have %d)", p[3], FrameVersion)
	}
	return p[3], nil
}

// AppendFrameHeader appends h's fixed 13-byte encoding.
func (h FrameHeader) AppendFrameHeader(dst []byte) []byte {
	b := Buffer{b: dst}
	b.U64(h.ID)
	b.U8(byte(h.Flags))
	b.U32(h.Length)
	return b.b
}

// ParseFrameHeader decodes a fixed frame header and validates the payload
// length bound.
func ParseFrameHeader(p []byte) (FrameHeader, error) {
	if len(p) < FrameHeaderLen {
		return FrameHeader{}, fmt.Errorf("wire: short frame header: %d bytes", len(p))
	}
	r := NewReader(p[:FrameHeaderLen])
	h := FrameHeader{ID: r.U64(), Flags: FrameFlags(r.U8()), Length: r.U32()}
	if err := r.Err(); err != nil {
		return FrameHeader{}, err
	}
	if h.Length > MaxFramePayload {
		return FrameHeader{}, fmt.Errorf("wire: frame payload too large: %d", h.Length)
	}
	return h, nil
}
