// BenchmarkGetWarmCache is the warm point read `make profile-get` profiles.
// End-to-end numbers come from bench/ (BENCHMARK.json) and the paper's
// figures from cmd/minuet-bench; docs/ARCHITECTURE.md has the layer map.
package minuet

import (
	"testing"

	"minuet/internal/ycsb"
)

func benchTree(b *testing.B, opts Options) *Tree {
	b.Helper()
	c := NewCluster(opts)
	tree, err := c.CreateTree("bench")
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

func BenchmarkGetWarmCache(b *testing.B) {
	tree := benchTree(b, Options{Machines: 2})
	const n = 10_000
	for i := 0; i < n; i++ {
		if err := tree.Put(ycsb.Key(uint64(i)), ycsb.Value(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tree.Get(ycsb.Key(uint64(i % n))); err != nil {
			b.Fatal(err)
		}
	}
}
