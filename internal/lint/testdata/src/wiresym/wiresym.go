// Package wiresym seeds one encode/decode drift among symmetric pairs,
// including a pair whose ops hide behind a cross-package helper.
package wiresym

import (
	"minuet/internal/wire"

	"wiresym/ids"
)

// encodeEntry and decodeEntry drift at the second field: written as u32,
// read back as u16.
func encodeEntry(b *wire.Buffer, ver uint64, n uint32, key []byte) { // want `wire codec drift between encodeEntry and decodeEntry: op 2 written as u32 but read as u16 \(encoder writes 3 ops, decoder reads 3\)`
	b.U64(ver)
	b.U32(n)
	b.Bytes16(key)
}

func decodeEntry(r *wire.Reader) (uint64, uint32, []byte) {
	ver := r.U64()
	n := uint32(r.U16())
	key := r.Bytes16()
	return ver, n, key
}

// appendItems and parseItems are symmetric: Reader.Count reads the u32 count
// Buffer.U32 wrote, and the loop bodies match once the cross-package id
// helpers are inlined through the call graph.
func appendItems(b *wire.Buffer, items [][]byte) {
	b.U32(uint32(len(items)))
	for _, it := range items {
		ids.WriteID(b, 7)
		b.Bytes32(it)
	}
}

func parseItems(r *wire.Reader) [][]byte {
	out := make([][]byte, r.Count(12))
	for i := range out {
		ids.ReadID(r)
		out[i] = r.Bytes32()
	}
	return out
}

// writeHeader and readHeader are symmetric: both sides guard the optional
// tag field with an if, which folds to the same opt[...] shape.
func writeHeader(b *wire.Buffer, version uint8, flagged bool, tag []byte) {
	b.U8(version)
	if flagged {
		b.Bytes16(tag)
	}
}

func readHeader(r *wire.Reader) (uint8, []byte) {
	version := r.U8()
	var tag []byte
	if version > 1 {
		tag = r.Bytes16()
	}
	return version, tag
}

// counted reads a count and sizes a slice by it; a generic helper called
// with an explicit instantiation is inlined like any other, so
// appendPairs and parsePairs are symmetric.
func counted[T any](r *wire.Reader, minElem int) []T {
	return make([]T, r.Count(minElem))
}

func appendPairs(b *wire.Buffer, pairs []uint64) {
	b.U32(uint32(len(pairs)))
	for _, p := range pairs {
		b.U64(p)
	}
}

func parsePairs(r *wire.Reader) []uint64 {
	out := counted[uint64](r, 8)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}
