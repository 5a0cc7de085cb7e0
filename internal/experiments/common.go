// Package experiments reproduces every figure in the paper's evaluation
// (§6, Figs 10-18). Each figure has a runner that builds the workload the
// paper describes, executes it on the simulated cluster, and returns the
// same rows or series the paper plots. cmd/minuet-bench prints them.
//
// Scale note: the paper runs 5-35 physical hosts with 100 M preloaded keys
// for 60 s per point. The defaults here are laptop-scale (documented per
// figure in docs/ARCHITECTURE.md); Scale lets callers trade fidelity for time.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"minuet/internal/cdb"
	"minuet/internal/cluster"
	"minuet/internal/core"
	"minuet/internal/dyntx"
	"minuet/internal/ycsb"
)

// Scale bundles the knobs that trade runtime for fidelity.
type Scale struct {
	Machines          []int         // cluster sizes to sweep (paper: 5..35)
	ThreadsPerMachine int           // YCSB client threads per machine (paper: 64 for Minuet)
	Preload           uint64        // records loaded before measuring (paper: 100 M)
	Duration          time.Duration // measurement window per point (paper: 60 s)
	Latency           time.Duration // one-way network latency (paper: 10 GigE LAN)
	ScanLength        int           // keys per scan (paper: 1 M)
}

// Default is the standard laptop-scale configuration used by
// cmd/minuet-bench.
func Default() Scale {
	return Scale{
		Machines:          []int{1, 2, 4, 8},
		ThreadsPerMachine: 16,
		Preload:           50_000,
		Duration:          1500 * time.Millisecond,
		Latency:           50 * time.Microsecond,
		ScanLength:        10_000,
	}
}

// Quick is a fast configuration for `go test -bench` smoke runs.
func Quick() Scale {
	return Scale{
		Machines:          []int{1, 2},
		ThreadsPerMachine: 8,
		Preload:           8_000,
		Duration:          300 * time.Millisecond,
		Latency:           20 * time.Microsecond,
		ScanLength:        2_000,
	}
}

// newMinuet builds a cluster with the experiment defaults holding trees
// trees, and returns it with one ycsb adapter per tree.
func newMinuet(sc Scale, machines int, dirty bool, trees int) (*cluster.Cluster, []*minuetDB, error) {
	cl := cluster.New(cluster.Config{
		Machines:      machines,
		OneWayLatency: sc.Latency,
		Replicate:     machines > 1, // paper: primary-backup on, logging off
		Tree: core.Config{
			NodeSize:        4096,
			MaxLeafKeys:     64,
			MaxInnerKeys:    64,
			DirtyTraversals: dirty,
		},
	})
	dbs := make([]*minuetDB, trees)
	for i := range dbs {
		if err := cl.CreateTree(i); err != nil {
			cl.Close()
			return nil, nil, err
		}
		db, err := newMinuetDB(cl, i)
		if err != nil {
			cl.Close()
			return nil, nil, err
		}
		dbs[i] = db
	}
	return cl, dbs, nil
}

// loadMinuet is the setup of every figure after Fig 10: a cluster with dirty
// traversals on and sc.Preload records loaded into each of its trees.
func loadMinuet(sc Scale, machines, trees int) (*cluster.Cluster, []*minuetDB, error) {
	cl, dbs, err := newMinuet(sc, machines, true, trees)
	if err != nil {
		return nil, nil, err
	}
	for _, db := range dbs {
		if err := ycsb.Load(db, 0, sc.Preload, 4*machines); err != nil {
			cl.Close()
			return nil, nil, err
		}
	}
	return cl, dbs, nil
}

// minuetDB adapts a Minuet tree to the ycsb.DB interface. Operations
// round-robin across the cluster's proxies, emulating the paper's layout in
// which every machine's YCSB client drives its local proxy.
type minuetDB struct {
	cl      *cluster.Cluster
	treeIdx int
	trees   []*core.BTree
	rr      atomic.Uint64
}

func newMinuetDB(cl *cluster.Cluster, treeIdx int) (*minuetDB, error) {
	db := &minuetDB{cl: cl, treeIdx: treeIdx}
	for i := 0; i < cl.Machines(); i++ {
		bt, err := cl.Proxy(i).Tree(treeIdx)
		if err != nil {
			return nil, err
		}
		db.trees = append(db.trees, bt)
	}
	return db, nil
}

func (db *minuetDB) pick() (int, *core.BTree) {
	i := int(db.rr.Add(1)) % len(db.trees)
	return i, db.trees[i]
}

func (db *minuetDB) Read(key []byte) error {
	_, bt := db.pick()
	_, _, err := bt.Get(key)
	return err
}

func (db *minuetDB) Update(key, val []byte) error {
	_, bt := db.pick()
	return bt.Put(key, val)
}

func (db *minuetDB) Insert(key, val []byte) error {
	_, bt := db.pick()
	return bt.Put(key, val)
}

// Scan is the paper's scan (§4.3): take a snapshot through the proxy's
// snapshot creation service, then scan that snapshot on the same proxy.
func (db *minuetDB) Scan(start []byte, count int) (int, error) {
	i, bt := db.pick()
	snap, _, err := db.cl.Proxy(i).Snapshot(db.treeIdx)
	if err != nil {
		return 0, err
	}
	kvs, err := bt.ScanSnapshot(snap, start, count)
	return len(kvs), err
}

// dualMinuetDB is Fig 13's Minuet client: every operation is one dynamic
// transaction that touches its key in both trees, on the proxy the
// round-robin picks. The two trees place their leaves independently, so
// the commit engages at most two memnodes.
type dualMinuetDB struct{ a, b *minuetDB }

func (d *dualMinuetDB) txn(fn func(tx *dyntx.Txn, bt *core.BTree) error) error {
	i, btA := d.a.pick()
	btB := d.b.trees[i]
	return core.RunMulti(d.a.cl.Proxy(i).Client, []*core.BTree{btA, btB}, func(tx *dyntx.Txn) error {
		if err := fn(tx, btA); err != nil {
			return err
		}
		return fn(tx, btB)
	})
}

func (d *dualMinuetDB) Read(key []byte) error {
	return d.txn(func(tx *dyntx.Txn, bt *core.BTree) error {
		_, _, err := bt.GetTxn(tx, key)
		return err
	})
}

func (d *dualMinuetDB) Update(key, val []byte) error {
	return d.txn(func(tx *dyntx.Txn, bt *core.BTree) error { return bt.PutTxn(tx, key, val) })
}

func (d *dualMinuetDB) Insert(key, val []byte) error { return d.Update(key, val) }

func (d *dualMinuetDB) Scan([]byte, int) (int, error) { return 0, errNoScan }

// cdbDB adapts the CDB emulation to ycsb.DB.
type cdbDB struct {
	db  *cdb.DB
	tbl int
}

func (c *cdbDB) Read(key []byte) error {
	_, _, err := c.db.Read(c.tbl, key)
	return err
}
func (c *cdbDB) Update(key, val []byte) error { return c.db.Upsert(c.tbl, key, val) }
func (c *cdbDB) Insert(key, val []byte) error { return c.db.Upsert(c.tbl, key, val) }
func (c *cdbDB) Scan(start []byte, count int) (int, error) {
	kvs, err := c.db.Scan(c.tbl, start, count)
	return len(kvs), err
}

// dualCDB is Fig 13's CDB client: every operation is one stored procedure
// that touches its key in both tables. CDB fences every partition for such
// a multi-partition transaction, whatever the keys.
type dualCDB struct{ db *cdb.DB }

func (c *dualCDB) Read(key []byte) error {
	_, err := c.db.MultiRead([]int{0, 1}, [][]byte{key, key})
	return err
}
func (c *dualCDB) Update(key, val []byte) error {
	return c.db.MultiUpsert([]int{0, 1}, [][]byte{key, key}, [][]byte{val, val})
}
func (c *dualCDB) Insert(key, val []byte) error  { return c.Update(key, val) }
func (c *dualCDB) Scan([]byte, int) (int, error) { return 0, errNoScan }

// errNoScan is returned by the dual-key clients, whose workloads never scan.
var errNoScan = errors.New("experiments: dual-key clients do not scan")

// loadCDB builds the baseline sized like a Minuet cluster, with sc.Preload
// records loaded into each of its tables.
func loadCDB(sc Scale, machines, tables int) (*cdb.DB, error) {
	db := cdb.New(cdb.Config{
		Partitions:     machines,
		Tables:         tables,
		NetworkLatency: sc.Latency,
		Replicate:      true,
		ProcTime:       25 * time.Microsecond,
		ScanRowLimit:   sc.ScanLength * 10, // generous, but finite (paper: CDB hit limits at 1M)
	})
	for tbl := 0; tbl < tables; tbl++ {
		if err := ycsb.Load(&cdbDB{db: db, tbl: tbl}, 0, sc.Preload, 8*machines); err != nil {
			db.Stop()
			return nil, err
		}
	}
	return db, nil
}

// startPools starts every runner for one window of d, side by side, and
// returns a wait that blocks until all of them have finished and returns
// their reports in order. A runner with no threads is not started and
// reports nothing. It is the one place in this package that starts client
// goroutines; a figure that runs one pool alone calls Run directly.
func startPools(d time.Duration, runners ...*ycsb.Runner) (wait func() []ycsb.Report) {
	reps := make([]ycsb.Report, len(runners))
	var wg sync.WaitGroup
	for i, r := range runners {
		if r.Threads <= 0 {
			continue
		}
		wg.Add(1)
		go func(i int, r *ycsb.Runner) {
			defer wg.Done()
			reps[i] = r.Run(d)
		}(i, r)
	}
	return func() []ycsb.Report {
		wg.Wait()
		return reps
	}
}

// fprintf writes a formatted row, ignoring errors (output is best-effort
// console reporting).
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
