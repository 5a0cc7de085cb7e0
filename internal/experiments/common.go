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
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"minuet/internal/cdb"
	"minuet/internal/cluster"
	"minuet/internal/core"
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

// newMinuet builds a cluster with the experiment defaults.
func newMinuet(sc Scale, machines int, dirty bool, trees int) (*cluster.Cluster, error) {
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
	for i := 0; i < trees; i++ {
		if err := cl.CreateTree(i); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// minuetDB adapts a Minuet tree to the ycsb.DB interface. Operations
// round-robin across the cluster's proxies, emulating the paper's layout in
// which every machine's YCSB client drives its local proxy.
type minuetDB struct {
	cl      *cluster.Cluster
	treeIdx int
	trees   []*core.BTree
	rr      atomic.Uint64

	// SnapshotScans selects the paper's scan strategy: create (or borrow)
	// a snapshot through the SCS and scan it. When false, scans run
	// against the tip as one validated transaction.
	SnapshotScans bool
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

func (db *minuetDB) Scan(start []byte, count int) error {
	i, bt := db.pick()
	if !db.SnapshotScans {
		_, err := bt.ScanTip(start, count)
		return err
	}
	snap, _, err := db.cl.Proxy(i).Snapshot(db.treeIdx)
	if err != nil {
		return err
	}
	_, err = bt.ScanSnapshot(snap, start, count)
	return err
}

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
func (c *cdbDB) Scan(start []byte, count int) error {
	_, err := c.db.Scan(c.tbl, start, count)
	return err
}

// newCDB builds the baseline sized like a Minuet cluster.
func newCDB(sc Scale, machines, tables int) *cdb.DB {
	return cdb.New(cdb.Config{
		Partitions:     machines,
		Tables:         tables,
		NetworkLatency: sc.Latency,
		Replicate:      true,
		ProcTime:       25 * time.Microsecond,
		ScanRowLimit:   sc.ScanLength * 10, // generous, but finite (paper: CDB hit limits at 1M)
	})
}

// updaterPool runs continuous single-key updates until stop is closed,
// returning a counter of completed updates. Used by the snapshot
// experiments that need an ambient OLTP workload.
func updaterPool(db ycsb.DB, n uint64, threads int, stop <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r := newRand(int64(t) + 42)
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := uint64(r.Int63n(int64(n)))
				_ = db.Update(ycsb.Key(i), ycsb.Value(i))
			}
		}(t)
	}
	return &wg
}

// fprintf writes a formatted row, ignoring errors (output is best-effort
// console reporting).
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// newRand returns a seeded PRNG (wrapper keeps call sites short).
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
