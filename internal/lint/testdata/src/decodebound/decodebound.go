// Package decodebound is a fixture for the decodebound analyzer: make()
// sizes and loop bounds derived from wire-decoded integers must be bounded
// against remaining input first. It decodes with the repo's real reader —
// wire.Reader.U32 is a taint source, wire.Reader.Count the sanctioned
// bounding helper.
package decodebound

import (
	"encoding/binary"

	"minuet/internal/wire"
)

func badMake(r *wire.Reader) []byte {
	n := int(r.U32())
	return make([]byte, n) // want `make size comes from a decoded integer that was never bounded`
}

func badLoop(r *wire.Reader) int {
	total := 0
	n := r.U32()
	for i := uint32(0); i < n; i++ { // want `loop bound comes from a decoded integer that was never bounded`
		total++
	}
	return total
}

func badRange(r *wire.Reader) []uint32 {
	var out []uint32
	n := int(r.U32())
	for range n { // want `range-over-int bound comes from a decoded integer that was never bounded`
		out = append(out, r.U32())
	}
	return out
}

func badVarint(b []byte) []byte {
	n, _ := binary.Uvarint(b)
	return make([]byte, n) // want `make size comes from a decoded integer that was never bounded`
}

// goodGuard bounds the count against remaining input before allocating.
func goodGuard(r *wire.Reader) []byte {
	n := int(r.U32())
	if n > r.Remaining() {
		return nil
	}
	return make([]byte, n)
}

// goodCount routes through the bounding helper; its result is not a source.
func goodCount(r *wire.Reader) []uint32 {
	out := make([]uint32, r.Count(4))
	for i := range out {
		out[i] = r.U32()
	}
	return out
}

// goodConst sizes come from nowhere near the wire.
func goodConst() []byte {
	return make([]byte, 64)
}
