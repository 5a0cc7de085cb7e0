package core

import (
	"testing"

	"minuet/internal/wire"
)

// benchLeaf is a leaf shaped like the benchmark's: 14-byte keys, 8-byte
// values, n of them.
func benchLeaf(n int) []byte {
	l := &Node{Created: 1, Copied: NoSnap, Low: wire.NegInf, High: wire.PosInf}
	for i := 0; i < n; i++ {
		l.Keys = append(l.Keys, key(i))
		l.Vals = append(l.Vals, []byte("12345678"))
	}
	return l.encode()
}

// BenchmarkNodeViewGet is the codec's share of a point read: parse a leaf
// image into a view, find one key, read its value.
func BenchmarkNodeViewGet(b *testing.B) {
	img := benchLeaf(96)
	k := key(40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := parseNode(img)
		if err != nil {
			b.Fatal(err)
		}
		if j, ok := v.search(k); !ok || len(v.val(j)) != 8 {
			b.Fatal("lost key")
		}
	}
}
