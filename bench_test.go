// Benchmark entry points for every figure in the paper's evaluation (§6,
// Figs 10-18), plus micro-benchmarks of the core operations and ablation
// benches for individual design choices (proxy cache, blocking snapshot
// creation, allocator extents); docs/ARCHITECTURE.md has the layer map.
//
// Figure benches run a scaled-down experiment per iteration and report the
// figure's headline metric through b.ReportMetric, so `go test -bench=Fig`
// regenerates the whole evaluation (see EXPERIMENTS.md for the mapping and
// cmd/minuet-bench for the full-scale table output).
package minuet

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"minuet/internal/core"
	"minuet/internal/experiments"
	"minuet/internal/metrics"
	"minuet/internal/ycsb"
)

// newBenchRand seeds a private PRNG for parallel bench loops.
func newBenchRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// benchScale is small enough that the full -bench=. suite finishes in a few
// minutes while preserving each figure's qualitative shape.
func benchScale() experiments.Scale {
	sc := experiments.Quick()
	sc.Duration = 250 * time.Millisecond
	return sc
}

var benchSink io.Writer // nil: figure runners stay quiet under -bench

// --------------------------------------------------------------- figures --

// BenchmarkFig10LoadThroughput: empty-tree load, dirty traversals ON vs OFF
// (the Aguilera et al. baseline). Metric: inserts/sec at the largest scale.
func BenchmarkFig10LoadThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(benchScale(), benchSink)
		if err != nil {
			b.Fatal(err)
		}
		var on, off float64
		for _, r := range rows {
			if r.Machines != rows[len(rows)-1].Machines {
				continue
			}
			if r.Dirty {
				on = r.Throughput
			} else {
				off = r.Throughput
			}
		}
		b.ReportMetric(on, "dirtyON-ops/s")
		b.ReportMetric(off, "dirtyOFF-ops/s")
		if off > 0 {
			b.ReportMetric(on/off, "speedup")
		}
	}
}

// BenchmarkFig11LatencyThroughput: latency vs offered load, Minuet vs CDB.
// Metric: mean read latency (µs) near peak for both systems.
func BenchmarkFig11LatencyThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(benchScale(), benchSink)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Offered == 0 {
				continue
			}
		}
		var minuetRead, cdbRead time.Duration
		for _, r := range rows {
			if r.System == "minuet" {
				minuetRead = r.ReadMean
			} else {
				cdbRead = r.ReadMean
			}
		}
		b.ReportMetric(float64(minuetRead.Microseconds()), "minuet-read-us")
		b.ReportMetric(float64(cdbRead.Microseconds()), "cdb-read-us")
	}
}

// BenchmarkFig12SingleKeyScalability. Metric: read ops/s at max scale.
func BenchmarkFig12SingleKeyScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(benchScale(), benchSink)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Op == "read" && r.Machines == rows[len(rows)-1].Machines {
				b.ReportMetric(r.Throughput, r.System+"-read-ops/s")
			}
		}
	}
}

// BenchmarkFig13MultiIndex: dual-key transactions, Minuet vs CDB.
func BenchmarkFig13MultiIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(benchScale(), benchSink)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Op == "read" && r.Machines == rows[len(rows)-1].Machines {
				b.ReportMetric(r.Throughput, r.System+"-2key-ops/s")
			}
		}
	}
}

// BenchmarkFig14SnapshotImpact: update-throughput dip around one snapshot.
// Metric: dip depth (min/median bucket ratio).
func BenchmarkFig14SnapshotImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(benchScale(), benchSink)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := res.OpsPerSec[0], res.OpsPerSec[0]
		for _, v := range res.OpsPerSec {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi > 0 {
			b.ReportMetric(lo/hi, "dip-ratio")
		}
	}
}

// BenchmarkFig15BorrowedSnapshots: scans/s with vs without borrowing.
func BenchmarkFig15BorrowedSnapshots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig15(benchScale(), benchSink)
		if err != nil {
			b.Fatal(err)
		}
		var on, off float64
		shortest := rows[0].ScanLength
		for _, r := range rows {
			if r.ScanLength != shortest {
				continue
			}
			if r.Borrow {
				on = r.ScansPerS
			} else {
				off = r.ScansPerS
			}
		}
		b.ReportMetric(on, "borrowed-scans/s")
		b.ReportMetric(off, "noborrow-scans/s")
	}
}

// BenchmarkFig16ScanScalability: scan keys/s vs machines.
func BenchmarkFig16ScanScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig16(benchScale(), benchSink)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].KeysPerSec, "keys/s")
	}
}

// BenchmarkFig17UpdatesWithScans: update throughput under scan load at
// several snapshot intervals.
func BenchmarkFig17UpdatesWithScans(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig17(benchScale(), benchSink)
		if err != nil {
			b.Fatal(err)
		}
		var k0, noScan float64
		for _, r := range rows {
			if r.Machines != rows[len(rows)-1].Machines {
				continue
			}
			if r.NoScans {
				noScan = r.UpdatesPerS
			} else if r.K == 0 {
				k0 = r.UpdatesPerS
			}
		}
		b.ReportMetric(k0, "k0-updates/s")
		b.ReportMetric(noScan, "noscan-updates/s")
	}
}

// BenchmarkFig18ScanLatency: scan latency vs snapshot interval, with and
// without the ambient update workload.
func BenchmarkFig18ScanLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig18(benchScale(), benchSink)
		if err != nil {
			b.Fatal(err)
		}
		var with, without time.Duration
		for _, r := range rows {
			if r.K == 0 {
				if r.WithUpdates {
					with = r.MeanLatency
				} else {
					without = r.MeanLatency
				}
			}
		}
		b.ReportMetric(float64(with.Microseconds()), "with-upd-us")
		b.ReportMetric(float64(without.Microseconds()), "no-upd-us")
	}
}

// ---------------------------------------------------------------- micro --

func benchTree(b *testing.B, opts Options) *Tree {
	b.Helper()
	c := NewCluster(opts)
	tree, err := c.CreateTree("bench")
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

func BenchmarkPut(b *testing.B) {
	tree := benchTree(b, Options{Machines: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Put(ycsb.Key(uint64(i)), ycsb.Value(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchPut measures the batched write path at several batch sizes
// on a 4-machine cluster, reporting memnode round trips per written key
// (the metric the batch pipeline exists to shrink: size 256 must come in at
// least 10× under size 1).
func BenchmarkBatchPut(b *testing.B) {
	for _, size := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			c := NewCluster(Options{Machines: 4})
			defer c.Close()
			tree, err := c.CreateTree("bench")
			if err != nil {
				b.Fatal(err)
			}
			// Preload so interior structure exists and caches warm up.
			const preload = 20_000
			for i := 0; i < preload; i++ {
				if err := tree.Put(ycsb.Key(uint64(i)), ycsb.Value(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			tr := c.Internal().Transport()
			rts := metrics.NewCounter()
			keys := metrics.NewCounter()
			batch := tree.NewBatch()
			b.ResetTimer()
			calls0 := tr.Stats().Calls
			for i := 0; i < b.N; i++ {
				batch.Reset()
				for j := 0; j < size; j++ {
					k := uint64(i*size+j) % preload
					batch.Put(ycsb.Key(k), ycsb.Value(k^0xBEEF))
				}
				if err := tree.WriteBatch(batch); err != nil {
					b.Fatal(err)
				}
				keys.Add(int64(size))
			}
			b.StopTimer()
			rts.Add(tr.Stats().Calls - calls0)
			if keys.Total() > 0 {
				b.ReportMetric(float64(rts.Total())/float64(keys.Total()), "roundtrips/key")
			}
			b.ReportMetric(float64(keys.Total())/b.Elapsed().Seconds(), "keys/s")
		})
	}
}

// BenchmarkBatchPutBranch is BenchmarkBatchPut on a branching tree: writes
// land on a writable clone through WriteBatchAt, with copy-on-write path
// copies and catalog-anchored root updates. A 256-key batch must issue at
// least 10× fewer memnode round trips per key than the PutAt loop
// (batch=1).
func BenchmarkBatchPutBranch(b *testing.B) {
	for _, size := range []int{1, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			c := NewCluster(Options{Machines: 4, Branching: true})
			defer c.Close()
			tree, err := c.CreateTree("bench")
			if err != nil {
				b.Fatal(err)
			}
			// Preload the mainline, freeze it by forking the branch under
			// test, then warm the branch's CoW paths so the measured window
			// sees the steady state.
			const preload = 20_000
			batch := tree.NewBatch()
			load := func(sid uint64) {
				for i := 0; i < preload; i += 512 {
					batch.Reset()
					for j := i; j < i+512 && j < preload; j++ {
						batch.Put(ycsb.Key(uint64(j)), ycsb.Value(uint64(j)))
					}
					if err := tree.WriteBatchAt(sid, batch); err != nil {
						b.Fatal(err)
					}
				}
			}
			load(1)
			br, err := tree.Branch(1)
			if err != nil {
				b.Fatal(err)
			}
			load(br.Sid)

			tr := c.Internal().Transport()
			rts := metrics.NewCounter()
			keys := metrics.NewCounter()
			b.ResetTimer()
			calls0 := tr.Stats().Calls
			for i := 0; i < b.N; i++ {
				if size == 1 {
					k := uint64(i) % preload
					if err := tree.PutAt(br.Sid, ycsb.Key(k), ycsb.Value(k^0xBEEF)); err != nil {
						b.Fatal(err)
					}
					keys.Add(1)
					continue
				}
				batch.Reset()
				for j := 0; j < size; j++ {
					k := uint64(i*size+j) % preload
					batch.Put(ycsb.Key(k), ycsb.Value(k^0xBEEF))
				}
				if err := tree.WriteBatchAt(br.Sid, batch); err != nil {
					b.Fatal(err)
				}
				keys.Add(int64(size))
			}
			b.StopTimer()
			rts.Add(tr.Stats().Calls - calls0)
			if keys.Total() > 0 {
				b.ReportMetric(float64(rts.Total())/float64(keys.Total()), "roundtrips/key")
			}
			b.ReportMetric(float64(keys.Total())/b.Elapsed().Seconds(), "keys/s")
		})
	}
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

func BenchmarkGetParallel(b *testing.B) {
	tree := benchTree(b, Options{Machines: 4})
	const n = 10_000
	for i := 0; i < n; i++ {
		if err := tree.Put(ycsb.Key(uint64(i)), ycsb.Value(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := tree.Get(ycsb.Key(uint64(i % n))); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func BenchmarkSnapshotCreate(b *testing.B) {
	tree := benchTree(b, Options{Machines: 2})
	for i := 0; i < 1000; i++ {
		if err := tree.Put(ycsb.Key(uint64(i)), ycsb.Value(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotScan1k(b *testing.B) {
	tree := benchTree(b, Options{Machines: 2})
	for i := 0; i < 2000; i++ {
		if err := tree.Put(ycsb.Key(uint64(i)), ycsb.Value(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	snap, err := tree.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kvs, err := tree.ScanSnapshot(snap, nil, 1000)
		if err != nil || len(kvs) != 1000 {
			b.Fatalf("%d %v", len(kvs), err)
		}
	}
}

func BenchmarkBranchWrite(b *testing.B) {
	c := NewCluster(Options{Machines: 2, Branching: true})
	tree, err := c.CreateTree("bench")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tree.PutAt(1, ycsb.Key(uint64(i)), ycsb.Value(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	br, err := tree.Branch(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.PutAt(br.Sid, ycsb.Key(uint64(i%500)), ycsb.Value(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------- ablations --

// BenchmarkAblationProxyCache compares warm-cache gets against a handle
// with caching disabled: the cache is what turns a traversal into a single
// round trip.
func BenchmarkAblationProxyCache(b *testing.B) {
	for _, cache := range []bool{true, false} {
		name := "on"
		entries := 0
		if !cache {
			name = "off"
			entries = -1
		}
		b.Run("cache="+name, func(b *testing.B) {
			tree := benchTree(b, Options{Machines: 2, NetworkLatency: 20 * time.Microsecond, CacheEntries: entries})
			const n = 5000
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
		})
	}
}

// BenchmarkAblationBlockingSnapshots compares the blocking minitransaction
// used for tip updates (§4.1) against plain abort-and-retry, under an
// update workload that contends for the tip objects.
func BenchmarkAblationBlockingSnapshots(b *testing.B) {
	for _, blocking := range []bool{true, false} {
		name := "blocking"
		if !blocking {
			name = "abort-retry"
		}
		b.Run(name, func(b *testing.B) {
			cl := NewCluster(Options{Machines: 2, NetworkLatency: 20 * time.Microsecond})
			tree, err := cl.CreateTree("bench")
			if err != nil {
				b.Fatal(err)
			}
			// Reach inside for the ablation flag.
			cfg := tree.Core().Config()
			_ = cfg
			if !blocking {
				setNonBlocking(tree.Core())
			}
			for i := 0; i < 2000; i++ {
				if err := tree.Put(ycsb.Key(uint64(i)), ycsb.Value(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			stop := make(chan struct{})
			for w := 0; w < 8; w++ {
				go func(w int) {
					i := uint64(w)
					for {
						select {
						case <-stop:
							return
						default:
						}
						_ = tree.Put(ycsb.Key(i%2000), ycsb.Value(i))
						i += 13
					}
				}(w)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.Core().CreateSnapshot(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
		})
	}
}

// BenchmarkAblationAllocatorExtent varies the allocator's extent size: with
// extent 1 every node allocation is a shared CAS; larger extents amortize
// it away.
func BenchmarkAblationAllocatorExtent(b *testing.B) {
	for _, extent := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("extent=%d", extent), func(b *testing.B) {
			cl := NewCluster(Options{Machines: 2, NetworkLatency: 20 * time.Microsecond, AllocExtent: extent,
				MaxLeafKeys: 8, MaxInnerKeys: 8, NodeSize: 512}) // tiny fanout: constant splitting
			tree, err := cl.CreateTree(fmt.Sprintf("bench-%d", extent))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tree.Put(ycsb.Key(uint64(i)), ycsb.Value(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// setNonBlocking flips the snapshot-blocking ablation flag on a core tree.
func setNonBlocking(bt *core.BTree) { core.SetNonBlockingSnapshots(bt) }

// BenchmarkAblationSkewedContention contrasts dirty traversals ON vs OFF
// under a Zipfian-skewed update workload — the contention regime §3 calls
// out ("when the workload is skewed, a larger B-tree can experience
// contention just like the smaller B-tree used in our microbenchmarks").
func BenchmarkAblationSkewedContention(b *testing.B) {
	for _, dirty := range []bool{true, false} {
		name := "dirty=on"
		if !dirty {
			name = "dirty=off"
		}
		b.Run(name, func(b *testing.B) {
			cl := NewCluster(Options{
				Machines: 2, NetworkLatency: 20 * time.Microsecond,
				LegacyTraversals: !dirty, MaxLeafKeys: 16, MaxInnerKeys: 16, NodeSize: 1024,
			})
			tree, err := cl.CreateTree("bench")
			if err != nil {
				b.Fatal(err)
			}
			const n = 5000
			for i := 0; i < n; i++ {
				if err := tree.Put(ycsb.Key(uint64(i)), ycsb.Value(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			z := ycsb.NewZipfian(true)
			rng := newBenchRand(99)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				r := newBenchRand(rng.Int63())
				for pb.Next() {
					i := z.Next(r, n)
					if err := tree.Put(ycsb.Key(i), ycsb.Value(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
