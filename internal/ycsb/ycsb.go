// Package ycsb reimplements the parts of the Yahoo! Cloud Serving Benchmark
// (Cooper et al., SoCC 2010) that the Minuet paper uses: a load phase that
// inserts N records, and a run phase issuing a configurable mix of reads,
// updates, inserts, and range scans with uniformly drawn keys. Keys are the
// paper's 14-byte "user"-prefixed keys and values are 8-byte integers.
package ycsb

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"minuet/internal/metrics"
)

// DB is the system under test. Implementations exist for Minuet trees and
// for the CDB baseline.
type DB interface {
	Read(key []byte) error
	Update(key, val []byte) error
	Insert(key, val []byte) error
	Scan(start []byte, count int) error
}

// BatchDB is implemented by systems that support atomic multi-key write
// batches; the load phase uses it to amortize commit round trips across
// many inserts.
type BatchDB interface {
	WriteBatch(keys, vals [][]byte) error
}

// OpKind labels an operation for reporting.
type OpKind int

// Operation kinds.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpScan
	opKinds
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpScan:
		return "scan"
	}
	return "?"
}

// Key renders record id i as the paper's 14-byte key ("user" + 10 digits).
// Like YCSB's default insertorder=hashed, the id is scrambled so that
// sequentially inserted records scatter across the key space instead of
// hammering the rightmost leaf.
func Key(i uint64) []byte { return []byte(fmt.Sprintf("user%010d", fnv64(i)%10_000_000_000)) }

// Value renders an 8-byte value for record id i.
func Value(i uint64) []byte {
	v := make([]byte, 8)
	for b := 0; b < 8; b++ {
		v[b] = byte(i >> (8 * b))
	}
	return v
}

// uniform draws a record index in [0, n) uniformly at random — the paper's
// default distribution. An empty range yields 0.
func uniform(r *rand.Rand, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return uint64(r.Int63n(int64(n)))
}

func fnv64(v uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// Workload describes a run-phase operation mix (proportions must sum to 1).
type Workload struct {
	ReadProp   float64
	UpdateProp float64
	InsertProp float64
	ScanProp   float64
	ScanLength int
	// RecordCount is the number of records loaded before the run; inserts
	// extend it.
	RecordCount uint64
}

// Report summarizes a run.
type Report struct {
	Duration   time.Duration
	Ops        int64
	Errors     int64
	Throughput float64 // ops/sec
	PerOp      [opKinds]metrics.Snapshot
	// KeysScanned counts keys returned by scan operations (Fig 16 reports
	// scan throughput in keys/sec).
	KeysScanned int64
}

// Runner drives a DB with concurrent client threads.
type Runner struct {
	DB      DB
	W       Workload
	Threads int
	// TargetOpsPerSec throttles offered load (0 = open loop). Used to walk
	// the latency-throughput curve of Fig 11.
	TargetOpsPerSec float64
	// Seed makes runs repeatable.
	Seed int64

	recordCount atomic.Uint64
	hists       [opKinds]metrics.Histogram
	errs        atomic.Int64
	keysScanned atomic.Int64
}

// Load bulk-inserts records [start, start+n) with `threads` goroutines.
func Load(db DB, start, n uint64, threads int) error {
	return LoadBatched(db, start, n, threads, 1)
}

// LoadBatched bulk-inserts records [start, start+n) with `threads`
// goroutines, grouping inserts into atomic batches of batchSize when the DB
// implements BatchDB (batchSize ≤ 1, or a non-batching DB, degrades to
// per-key inserts). Batched loading is dramatically cheaper on systems that
// amortize commit round trips across a batch.
func LoadBatched(db DB, start, n uint64, threads, batchSize int) error {
	if threads <= 0 {
		threads = 1
	}
	bdb, batching := db.(BatchDB)
	if batchSize <= 1 {
		batching = false
	}
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	per := n / uint64(threads)
	for t := 0; t < threads; t++ {
		lo := start + uint64(t)*per
		hi := lo + per
		if t == threads-1 {
			hi = start + n
		}
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			if !batching {
				for i := lo; i < hi; i++ {
					if err := db.Insert(Key(i), Value(i)); err != nil {
						errCh <- err
						return
					}
				}
				return
			}
			keys := make([][]byte, 0, batchSize)
			vals := make([][]byte, 0, batchSize)
			for i := lo; i < hi; i++ {
				keys = append(keys, Key(i))
				vals = append(vals, Value(i))
				if len(keys) == batchSize || i == hi-1 {
					if err := bdb.WriteBatch(keys, vals); err != nil {
						errCh <- err
						return
					}
					keys, vals = keys[:0], vals[:0]
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	return nil
}

// Run executes the workload for the given duration and reports statistics.
func (r *Runner) Run(d time.Duration) Report {
	if r.Threads <= 0 {
		r.Threads = 1
	}
	r.recordCount.Store(r.W.RecordCount)
	for i := range r.hists {
		r.hists[i].Reset()
	}
	r.errs.Store(0)
	r.keysScanned.Store(0)

	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < r.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r.clientLoop(t, deadline)
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{Duration: elapsed, Errors: r.errs.Load(), KeysScanned: r.keysScanned.Load()}
	for i := range r.hists {
		s := r.hists[i].Snap()
		rep.PerOp[i] = s
		rep.Ops += s.Count
	}
	rep.Throughput = float64(rep.Ops) / elapsed.Seconds()
	return rep
}

func (r *Runner) clientLoop(id int, deadline time.Time) {
	rng := rand.New(rand.NewSource(r.Seed + int64(id)*7919 + 1))
	var perOpBudget time.Duration
	if r.TargetOpsPerSec > 0 {
		perOpBudget = time.Duration(float64(r.Threads) * float64(time.Second) / r.TargetOpsPerSec)
	}
	next := time.Now()
	for time.Now().Before(deadline) {
		if perOpBudget > 0 {
			now := time.Now()
			if now.Before(next) {
				time.Sleep(next.Sub(now))
			}
			next = next.Add(perOpBudget)
			if time.Now().After(next.Add(10 * perOpBudget)) {
				next = time.Now() // don't accumulate unbounded debt
			}
		}
		r.oneOp(rng)
	}
}

func (r *Runner) oneOp(rng *rand.Rand) {
	w := &r.W
	p := rng.Float64()
	n := r.recordCount.Load()
	var kind OpKind
	switch {
	case p < w.ReadProp:
		kind = OpRead
	case p < w.ReadProp+w.UpdateProp:
		kind = OpUpdate
	case p < w.ReadProp+w.UpdateProp+w.InsertProp:
		kind = OpInsert
	default:
		kind = OpScan
	}

	var err error
	t0 := time.Now()
	switch kind {
	case OpRead:
		err = r.DB.Read(Key(uniform(rng, n)))
	case OpUpdate:
		i := uniform(rng, n)
		err = r.DB.Update(Key(i), Value(i^0xDEAD))
	case OpInsert:
		i := r.recordCount.Add(1) - 1
		err = r.DB.Insert(Key(i), Value(i))
	case OpScan:
		i := uniform(rng, n)
		err = r.DB.Scan(Key(i), w.ScanLength)
		if err == nil {
			r.keysScanned.Add(int64(w.ScanLength))
		}
	}
	if err != nil {
		r.errs.Add(1)
		return
	}
	r.hists[kind].Observe(time.Since(t0))
}
