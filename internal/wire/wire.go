// Package wire provides the low-level binary encoding primitives shared by
// every layer of Minuet: fixed-width integer codecs, length-prefixed byte
// strings, and ordered keys with explicit -inf/+inf sentinels used as B-tree
// fence keys.
//
// All encodings are little-endian and deterministic; the same logical value
// always produces the same bytes, which the optimistic concurrency layer
// relies on when comparing node images.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// Key is an ordered byte-string key. The zero value is the empty key, which
// is a legal (smallest non-sentinel) key. Fence keys use the sentinel
// encodings below so that every B-tree node can describe a half-open key
// range even at the edges of the key space.
type Key []byte

// Sentinel markers used by fence-key encodings. Ordinary keys are encoded
// with markerKey; the sentinels carry no payload.
const (
	markerNegInf byte = 0
	markerKey    byte = 1
	markerPosInf byte = 2
)

// Fence represents a fence key: either -inf, +inf, or a concrete key.
type Fence struct {
	kind byte // one of the marker constants
	key  Key
}

// NegInf and PosInf are the extreme fences.
var (
	NegInf = Fence{kind: markerNegInf}
	PosInf = Fence{kind: markerPosInf}
)

// FenceAt returns a concrete fence at key k. The key bytes are aliased, not
// copied; callers that mutate k must copy first.
func FenceAt(k Key) Fence { return Fence{kind: markerKey, key: k} }

// IsNegInf reports whether f is the -inf sentinel.
func (f Fence) IsNegInf() bool { return f.kind == markerNegInf }

// IsPosInf reports whether f is the +inf sentinel.
func (f Fence) IsPosInf() bool { return f.kind == markerPosInf }

// Key returns the concrete key of f. It must only be called when f is
// neither sentinel.
func (f Fence) Key() Key { return f.key }

// CompareKey orders a concrete key k against fence f:
// -1 if k < f, 0 if k == f, +1 if k > f.
func (f Fence) CompareKey(k Key) int {
	switch f.kind {
	case markerNegInf:
		return 1 // every key is above -inf
	case markerPosInf:
		return -1 // every key is below +inf
	default:
		return bytes.Compare(k, f.key)
	}
}

// Compare orders two fences.
func (f Fence) Compare(g Fence) int {
	if f.kind != markerKey || g.kind != markerKey {
		// Sentinels order by marker value: -inf(0) < key(1) < +inf(2).
		switch {
		case f.kind < g.kind:
			return -1
		case f.kind > g.kind:
			return 1
		default:
			if f.kind != markerKey {
				return 0
			}
		}
	}
	return bytes.Compare(f.key, g.key)
}

// String renders the fence for debugging.
func (f Fence) String() string {
	switch f.kind {
	case markerNegInf:
		return "-inf"
	case markerPosInf:
		return "+inf"
	default:
		return fmt.Sprintf("%q", string(f.key))
	}
}

// Buffer is an append-only encoder. The zero value is ready to use.
type Buffer struct {
	b []byte
}

// NewBuffer returns a Buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer { return &Buffer{b: make([]byte, 0, capacity)} }

// Bytes returns the encoded bytes. The slice aliases the buffer.
func (w *Buffer) Bytes() []byte { return w.b }

// Len returns the number of encoded bytes.
func (w *Buffer) Len() int { return len(w.b) }

// Reset empties the buffer and keeps its storage, so one Buffer can encode
// one value after another. Bytes returned before are overwritten.
func (w *Buffer) Reset() { w.b = w.b[:0] }

// Grow makes room for n more bytes, so an encoder that knows its size up
// front appends it without reallocating on the way.
func (w *Buffer) Grow(n int) { w.b = slices.Grow(w.b, n) }

// Write appends p unframed, which makes a Buffer an io.Writer. It never
// fails.
func (w *Buffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// U8 appends a single byte.
func (w *Buffer) U8(v byte) { w.b = append(w.b, v) }

// U16 appends a little-endian uint16.
func (w *Buffer) U16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }

// U32 appends a little-endian uint32.
func (w *Buffer) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

// U64 appends a little-endian uint64.
func (w *Buffer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// Bytes16 appends a byte string with a uint16 length prefix.
func (w *Buffer) Bytes16(p []byte) {
	if len(p) > 0xFFFF {
		panic(fmt.Sprintf("wire: byte string too long: %d", len(p)))
	}
	w.U16(uint16(len(p)))
	w.b = append(w.b, p...)
}

// Bytes32 appends a byte string with a uint32 length prefix.
func (w *Buffer) Bytes32(p []byte) {
	if len(p) > 0x7FFFFFFF {
		panic(fmt.Sprintf("wire: byte string too long: %d", len(p)))
	}
	w.U32(uint32(len(p)))
	w.b = append(w.b, p...)
}

// Fence appends a fence-key encoding.
func (w *Buffer) Fence(f Fence) {
	w.U8(f.kind)
	if f.kind == markerKey {
		w.Bytes16(f.key)
	}
}

// Reader decodes values written by Buffer. Decoding failures are reported
// through Err rather than panics so that torn reads of concurrently-updated
// memory (which the dirty-read protocol tolerates) surface as recoverable
// errors.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over p.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s at offset %d (len %d)", what, r.off, len(r.b))
	}
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail("u8")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail("u16")
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Count reads a uint32 element count and bounds it by the input that remains:
// each element occupies at least minElem encoded bytes, so a larger count is
// corrupt input — failed here, before the caller sizes an allocation or a
// loop by it.
func (r *Reader) Count(minElem int) int {
	n := int(r.U32())
	if r.err != nil || n < 0 || n > r.Remaining()/minElem {
		r.fail("element count")
		return 0
	}
	return n
}

// Bytes16 reads a uint16-length-prefixed byte string. It is the copying half
// of the Bytes16/View16 pair: the returned slice is private to the caller,
// safe to retain and to modify whatever happens to the input buffer. Decoders
// whose input may be reused or rewritten (WAL replay, catalog) use this form.
func (r *Reader) Bytes16() []byte {
	return bytes.Clone(r.View16()) // nil after a failed read, like View16
}

// View16 reads a uint16-length-prefixed byte string without copying it. It
// is the aliasing half of the pair: the returned slice points into the
// Reader's input (capacity clipped to its length, so an append reallocates
// instead of overwriting the bytes that follow) and keeps the whole input
// alive for as long as it is referenced. Only decoders that own their input
// and treat it as immutable may use it — the node decoder of internal/core,
// whose images are install-once at the memnode and never written at the
// proxy (docs/ARCHITECTURE.md, "Image ownership").
func (r *Reader) View16() []byte {
	n := int(r.U16())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail("bytes16")
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// Bytes32 reads a uint32-length-prefixed byte string. Like Bytes16 it copies:
// the returned slice is private to the caller and safe to retain. There is
// no aliasing 32-bit form; add one beside View16 only for a decoder that
// meets the same ownership rule.
func (r *Reader) Bytes32() []byte {
	n := int(r.U32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail("bytes32")
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:])
	r.off += n
	return out
}

// Fence reads a fence-key encoding. A concrete fence aliases the Reader's
// input like View16 (and like FenceAt aliases its argument), under the same
// ownership rule.
func (r *Reader) Fence() Fence {
	kind := r.U8()
	switch kind {
	case markerNegInf:
		return NegInf
	case markerPosInf:
		return PosInf
	case markerKey:
		return FenceAt(r.View16())
	default:
		r.fail("fence marker")
		return NegInf
	}
}

// CompareKeys orders two concrete keys.
func CompareKeys(a, b Key) int { return bytes.Compare(a, b) }

// CloneKey returns a copy of k.
func CloneKey(k Key) Key {
	out := make(Key, len(k))
	copy(out, k)
	return out
}

// U64Key encodes v as an 8-byte big-endian key, so numeric order matches
// byte order. Used by the snapshot catalog and by tests.
func U64Key(v uint64) Key {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], v)
	return k[:]
}

// KeyU64 decodes a key written by U64Key.
func KeyU64(k Key) uint64 {
	if len(k) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(k)
}
