// Real-socket benchmarks: the same batched write pipeline BenchmarkBatchPut
// measures over netsim, run over loopback TCP through internal/rpcnet. The
// transport sub-benchmarks contrast protocol v2 (multiplexed, pipelined —
// the default) against protocol v1 (one synchronous request per pooled
// connection, the pre-multiplexing transport) at an equal connection budget,
// so the measured difference is pipelining, not socket count. See
// docs/WIRE.md for the protocols and README.md for recorded numbers.
package minuet

import (
	"fmt"
	"sync/atomic"
	"testing"

	"minuet/internal/alloc"
	"minuet/internal/core"
	"minuet/internal/netsim"
	"minuet/internal/rpcnet"
	"minuet/internal/sinfonia"
	"minuet/internal/ycsb"
)

// tcpKey renders ordered fixed-width keys, unlike ycsb.Key which hashes the
// index: contiguous index regions map to contiguous (disjoint) leaf ranges,
// so concurrent workers don't trip each other's optimistic validations.
func tcpKey(i uint64) []byte { return []byte(fmt.Sprintf("key%08d", i)) }

// startTCPMemnodes boots n in-process memnodes behind real TCP listeners and
// returns their address map plus a shutdown func.
func startTCPMemnodes(b testing.TB, n int) (map[netsim.NodeID]string, []sinfonia.NodeID, func()) {
	b.Helper()
	addrs := make(map[netsim.NodeID]string, n)
	nodes := make([]sinfonia.NodeID, n)
	servers := make([]*rpcnet.Server, 0, n)
	for i := 0; i < n; i++ {
		id := sinfonia.NodeID(i)
		nodes[i] = id
		srv, err := rpcnet.Listen("127.0.0.1:0", sinfonia.NewMemnode(id))
		if err != nil {
			b.Fatal(err)
		}
		servers = append(servers, srv)
		addrs[netsim.NodeID(i)] = srv.Addr()
	}
	return addrs, nodes, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

// BenchmarkBatchPutTCP: batched writes (64 keys per atomic batch) from 16
// concurrent workers against 4 memnodes over loopback TCP, the client's
// default 2 shared connections per peer with requests pipelined and
// multiplexed by id.
// Workers write disjoint key regions of a preloaded tree, so commits rarely
// conflict and the transport's ability to keep requests in flight dominates.
func BenchmarkBatchPutTCP(b *testing.B) {
	const (
		machines = 4
		batchLen = 64
		preload  = 20_000
		workers  = 16 // concurrent batch writers (SetParallelism on 1 CPU)
	)
	addrs, nodes, shutdown := startTCPMemnodes(b, machines)
	defer shutdown()
	tr := rpcnet.NewClient(addrs)
	defer tr.Close()
	b.SetParallelism(workers)
	sc := sinfonia.NewClient(tr, nodes)
	al := alloc.New(sc, 4096, 64)
	bt, err := core.Create(sc, al, 0, nodes[0], core.Config{DirtyTraversals: true})
	if err != nil {
		b.Fatal(err)
	}
	ops := make([]core.BatchOp, 0, 512)
	for i := 0; i < preload; {
		ops = ops[:0]
		for ; i < preload && len(ops) < 512; i++ {
			ops = append(ops, core.BatchOp{Key: tcpKey(uint64(i)), Val: ycsb.Value(uint64(i))})
		}
		if err := bt.ApplyBatch(ops); err != nil {
			b.Fatal(err)
		}
	}

	var keys atomic.Int64
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Give each worker its own key region so concurrent batches
		// land on disjoint leaves.
		w := worker.Add(1) - 1
		region := uint64(w%workers) * (preload / workers)
		i := 0
		ops := make([]core.BatchOp, batchLen)
		for pb.Next() {
			for j := range ops {
				k := region + uint64(i*batchLen+j)%(preload/workers)
				ops[j] = core.BatchOp{Key: tcpKey(k), Val: ycsb.Value(k ^ 0xBEEF)}
			}
			if err := bt.ApplyBatch(ops); err != nil {
				b.Fatal(err)
			}
			keys.Add(batchLen)
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(keys.Load())/b.Elapsed().Seconds(), "keys/s")
}
