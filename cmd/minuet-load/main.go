// Command minuet-load is a proxy-side driver for a cluster of
// minuet-server memnodes: it creates (or opens) a distributed B-tree over
// TCP, bulk-loads keys, runs a quick mixed workload, takes a snapshot, and
// prints throughput and memnode statistics — a smoke test for real-socket
// deployments.
//
// Usage:
//
//	minuet-server -id 0 -listen :7070 &
//	minuet-server -id 1 -listen :7071 &
//	minuet-load -nodes 127.0.0.1:7070,127.0.0.1:7071 -n 50000
//
// Alternatively, -cluster N skips the manual server setup entirely: the
// driver builds minuet-server, spawns N memnode processes on loopback ports
// (via internal/prochost), runs the load against them, and tears everything
// down. This is the one-command smoke test CI runs:
//
//	minuet-load -cluster 3 -n 20000 -batch 64
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"minuet/internal/alloc"
	"minuet/internal/core"
	"minuet/internal/netsim"
	"minuet/internal/prochost"
	"minuet/internal/rpcnet"
	"minuet/internal/sinfonia"
	"minuet/internal/ycsb"
)

func main() {
	var (
		nodesArg = flag.String("nodes", "127.0.0.1:7070", "comma-separated memnode addresses (node id = position)")
		cluster  = flag.Int("cluster", 0, "spawn this many memnode server processes on loopback and run against them (overrides -nodes)")
		n        = flag.Uint64("n", 10_000, "records to load")
		threads  = flag.Int("threads", 8, "loader threads")
		runFor   = flag.Duration("run", 2*time.Second, "mixed-workload duration after loading")
		create   = flag.Bool("create", true, "create the tree (set false to attach to an existing one)")
		batch    = flag.Int("batch", 1, "records per atomic write batch in the load phase (1 = single-key inserts)")
		branch   = flag.Bool("branch", false, "branching mode: load the mainline, fork a writable clone, batch-load the clone, and verify the frozen parent is undisturbed")
	)
	flag.Parse()

	addrs := map[netsim.NodeID]string{}
	var nodes []sinfonia.NodeID
	if *cluster > 0 {
		fmt.Printf("booting %d-process cluster...\n", *cluster)
		pc, err := prochost.Start(prochost.Options{Nodes: *cluster, Output: os.Stderr})
		if err != nil {
			log.Fatalf("minuet-load: start cluster: %v", err)
		}
		defer pc.Close()
		addrs = pc.Addrs()
		nodes = pc.NodeIDs()
	} else {
		for i, a := range strings.Split(*nodesArg, ",") {
			id := sinfonia.NodeID(i)
			addrs[netsim.NodeID(i)] = strings.TrimSpace(a)
			nodes = append(nodes, id)
		}
	}
	tr := rpcnet.NewClient(addrs)
	defer tr.Close()
	client := sinfonia.NewClient(tr, nodes)
	al := alloc.New(client, 4096, 64)

	cfg := core.Config{DirtyTraversals: true, Branching: *branch}
	var bt *core.BTree
	var err error
	if *create {
		bt, err = core.Create(client, al, 0, nodes[0], cfg)
		if err == core.ErrTreeExists {
			bt, err = core.Open(client, al, 0, nodes[0], cfg)
		}
	} else {
		bt, err = core.Open(client, al, 0, nodes[0], cfg)
	}
	if err != nil {
		log.Fatalf("minuet-load: open tree: %v", err)
	}

	db := &treeDB{bt: bt}
	if *branch {
		db.sid = 1 // initial writable version; root updates live in the catalog
	}
	t0 := time.Now()
	if err := ycsb.LoadBatched(db, 0, *n, *threads, *batch); err != nil {
		log.Fatalf("minuet-load: load: %v", err)
	}
	loadDur := time.Since(t0)
	fmt.Printf("loaded %d records (batch %d) in %v (%.0f ops/s)\n", *n, *batch, loadDur.Round(time.Millisecond), float64(*n)/loadDur.Seconds())

	runner := &ycsb.Runner{
		DB:      db,
		W:       ycsb.Workload{ReadProp: 0.5, UpdateProp: 0.45, InsertProp: 0.05, RecordCount: *n},
		Threads: *threads,
	}
	rep := runner.Run(*runFor)
	fmt.Printf("mixed workload: %.0f ops/s (%d ops, %d errors)\n", rep.Throughput, rep.Ops, rep.Errors)
	fmt.Printf("  read   mean=%v p95=%v\n", rep.PerOp[ycsb.OpRead].Mean, rep.PerOp[ycsb.OpRead].P95)
	fmt.Printf("  update mean=%v p95=%v\n", rep.PerOp[ycsb.OpUpdate].Mean, rep.PerOp[ycsb.OpUpdate].P95)

	if *branch {
		runBranchPhase(bt, db, *n, *batch)
	} else {
		snap, err := bt.CreateSnapshot()
		if err != nil {
			log.Fatalf("minuet-load: snapshot: %v", err)
		}
		kvs, err := bt.ScanSnapshot(snap, nil, 10)
		if err != nil {
			log.Fatalf("minuet-load: snapshot scan: %v", err)
		}
		fmt.Printf("snapshot %d created; first keys:", snap.Sid)
		for _, kv := range kvs {
			fmt.Printf(" %s", kv.Key)
		}
		fmt.Println()
	}

	for _, node := range nodes {
		st, err := client.Stats(node)
		if err != nil {
			log.Fatalf("minuet-load: stats: %v", err)
		}
		fmt.Printf("memnode %d: items=%d bytes=%d commits=%d aborts=%d busy-aborts=%d\n",
			node, st.Items, st.Bytes, st.Commits, st.Aborts, st.BusyAborts)
	}
}

// runBranchPhase exercises the branching batch pipeline over the wire:
// freeze the loaded mainline by forking a clone, batch-load the clone, and
// prove the frozen parent is byte-for-byte undisturbed.
func runBranchPhase(bt *core.BTree, db *treeDB, n uint64, batch int) {
	parentEntry, err := bt.Catalog().Refresh(1)
	if err != nil {
		log.Fatalf("minuet-load: catalog: %v", err)
	}
	parent := core.Snapshot{Sid: 1, Root: parentEntry.Root}
	before, err := bt.ScanSnapshot(parent, nil, int(n)+10)
	if err != nil {
		log.Fatalf("minuet-load: parent scan: %v", err)
	}

	br, err := bt.CreateBranch(1)
	if err != nil {
		log.Fatalf("minuet-load: branch: %v", err)
	}
	if batch < 1 {
		batch = 1
	}
	t0 := time.Now()
	ops := make([]core.BatchOp, 0, batch)
	for i := uint64(0); i < n; {
		ops = ops[:0]
		for ; i < n && len(ops) < batch; i++ {
			ops = append(ops, core.BatchOp{Key: ycsb.Key(i), Val: []byte("branched")})
		}
		if err := bt.ApplyBatchAt(br.Sid, ops); err != nil {
			log.Fatalf("minuet-load: branch batch: %v", err)
		}
	}
	dur := time.Since(t0)
	fmt.Printf("branch %d: rewrote %d keys in batches of %d in %v (%.0f keys/s)\n",
		br.Sid, n, batch, dur.Round(time.Millisecond), float64(n)/dur.Seconds())

	after, err := bt.ScanSnapshot(parent, nil, int(n)+10)
	if err != nil {
		log.Fatalf("minuet-load: parent re-scan: %v", err)
	}
	if len(before) != len(after) {
		log.Fatalf("minuet-load: frozen parent changed size: %d -> %d keys", len(before), len(after))
	}
	for i := range before {
		if string(before[i].Key) != string(after[i].Key) || string(before[i].Val) != string(after[i].Val) {
			log.Fatalf("minuet-load: frozen parent changed at %q", before[i].Key)
		}
	}
	fmt.Printf("frozen parent verified: %d keys unchanged under the branch load\n", len(before))
}

// treeDB adapts a core.BTree to ycsb.DB. With sid set (branching mode)
// every operation is version-addressed at that writable clone.
type treeDB struct {
	bt  *core.BTree
	sid uint64 // 0 = linear tip
}

func (d *treeDB) Read(key []byte) error {
	if d.sid != 0 {
		_, _, err := d.bt.GetAt(d.sid, key)
		return err
	}
	_, _, err := d.bt.Get(key)
	return err
}
func (d *treeDB) Update(key, val []byte) error {
	if d.sid != 0 {
		return d.bt.PutAt(d.sid, key, val)
	}
	return d.bt.Put(key, val)
}
func (d *treeDB) Insert(key, val []byte) error { return d.Update(key, val) }
func (d *treeDB) Scan(start []byte, count int) error {
	if d.sid != 0 {
		_, err := d.bt.ScanAt(d.sid, start, count)
		return err
	}
	_, err := d.bt.ScanTip(start, count)
	return err
}

// WriteBatch implements ycsb.BatchDB over the core batch path
// (version-addressed in branching mode).
func (d *treeDB) WriteBatch(keys, vals [][]byte) error {
	ops := make([]core.BatchOp, len(keys))
	for i := range keys {
		ops[i] = core.BatchOp{Key: keys[i], Val: vals[i]}
	}
	if d.sid != 0 {
		return d.bt.ApplyBatchAt(d.sid, ops)
	}
	return d.bt.ApplyBatch(ops)
}
