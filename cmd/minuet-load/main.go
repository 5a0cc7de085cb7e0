// Command minuet-load is a proxy-side driver for a cluster of
// minuet-server memnodes: it creates (or opens) a distributed B-tree over
// TCP, bulk-loads keys, runs a quick mixed workload, takes a snapshot, and
// prints throughput, memnode statistics and the proxy's retry counters — a
// smoke test for real-socket deployments. A load that spends its retry
// budget fails with the attempts counted by cause.
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
//	minuet-load -cluster 3 -n 5000 -batch 64 -run 1s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "minuet-load: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole driver. Every failure returns rather than exits, so the
// deferred closes — above all the -cluster teardown — always run.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("minuet-load", flag.ContinueOnError)
	var (
		nodesArg = fs.String("nodes", "127.0.0.1:7070", "comma-separated memnode addresses (node id = position)")
		cluster  = fs.Int("cluster", 0, "spawn this many memnode server processes on loopback and run against them (overrides -nodes)")
		n        = fs.Uint64("n", 10_000, "records to load")
		threads  = fs.Int("threads", 8, "loader threads")
		runFor   = fs.Duration("run", 2*time.Second, "mixed-workload duration after loading")
		create   = fs.Bool("create", true, "create the tree (set false to attach to an existing one)")
		batch    = fs.Int("batch", 1, "records per atomic write batch in the load phase (1 = single-key inserts)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	addrs := map[netsim.NodeID]string{}
	var nodes []sinfonia.NodeID
	if *cluster > 0 {
		fmt.Fprintf(out, "booting %d-process cluster...\n", *cluster)
		pc, err := prochost.Start(prochost.Options{Nodes: *cluster, Output: os.Stderr})
		if err != nil {
			return fmt.Errorf("start cluster: %w", err)
		}
		defer pc.Close()
		addrs = pc.Addrs()
		nodes = pc.NodeIDs()
		for _, id := range nodes {
			fmt.Fprintf(out, "memnode %d at %s\n", id, addrs[netsim.NodeID(id)])
		}
	} else {
		for i, a := range strings.Split(*nodesArg, ",") {
			addrs[netsim.NodeID(i)] = strings.TrimSpace(a)
			nodes = append(nodes, sinfonia.NodeID(i))
		}
	}
	tr := rpcnet.NewClient(addrs)
	defer tr.Close()
	client := sinfonia.NewClient(tr, nodes)
	al := alloc.New(client, 4096, 64)

	cfg := core.Config{DirtyTraversals: true}
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
		return fmt.Errorf("open tree: %w", err)
	}

	db := &treeDB{bt: bt}
	t0 := time.Now()
	if err := ycsb.LoadBatched(db, 0, *n, *threads, *batch); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	loadDur := time.Since(t0)
	fmt.Fprintf(out, "loaded %d records (batch %d) in %v (%.0f ops/s)\n", *n, *batch, loadDur.Round(time.Millisecond), float64(*n)/loadDur.Seconds())

	runner := &ycsb.Runner{
		DB:      db,
		W:       ycsb.Workload{ReadProp: 0.5, UpdateProp: 0.45, InsertProp: 0.05, RecordCount: *n},
		Threads: *threads,
	}
	rep := runner.Run(*runFor)
	fmt.Fprintf(out, "mixed workload: %.0f ops/s (%d ops, %d errors)\n", rep.Throughput, rep.Ops, rep.Errors)
	fmt.Fprintf(out, "  read   mean=%v p95=%v\n", rep.PerOp[ycsb.OpRead].Mean, rep.PerOp[ycsb.OpRead].P95)
	fmt.Fprintf(out, "  update mean=%v p95=%v\n", rep.PerOp[ycsb.OpUpdate].Mean, rep.PerOp[ycsb.OpUpdate].P95)

	snap, err := bt.CreateSnapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	kvs, err := bt.ScanSnapshot(snap, nil, 10)
	if err != nil {
		return fmt.Errorf("snapshot scan: %w", err)
	}
	fmt.Fprintf(out, "snapshot %d created; first keys:", snap.Sid)
	for _, kv := range kvs {
		fmt.Fprintf(out, " %s", kv.Key)
	}
	fmt.Fprintln(out)

	for _, node := range nodes {
		st, err := client.Stats(node)
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		fmt.Fprintf(out, "memnode %d: items=%d bytes=%d commits=%d aborts=%d busy-aborts=%d\n",
			node, st.Items, st.Bytes, st.Commits, st.Aborts, st.BusyAborts)
	}
	st := bt.Stats()
	fmt.Fprintf(out, "proxy: ops=%d retries=%d roundtrips=%d\n", st.Ops, st.Retries, st.Roundtrips)
	return nil
}

// treeDB adapts a core.BTree to ycsb.DB and ycsb.BatchDB.
type treeDB struct{ bt *core.BTree }

func (d *treeDB) Read(key []byte) error {
	_, _, err := d.bt.Get(key)
	return err
}
func (d *treeDB) Update(key, val []byte) error { return d.bt.Put(key, val) }
func (d *treeDB) Insert(key, val []byte) error { return d.Update(key, val) }
func (d *treeDB) Scan(start []byte, count int) error {
	_, err := d.bt.ScanTip(start, count)
	return err
}

// WriteBatch implements ycsb.BatchDB over the core batch path.
func (d *treeDB) WriteBatch(keys, vals [][]byte) error {
	ops := make([]core.BatchOp, len(keys))
	for i := range keys {
		ops[i] = core.BatchOp{Key: keys[i], Val: vals[i]}
	}
	return d.bt.ApplyBatch(ops)
}
