package ycsb

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestKeyFormat(t *testing.T) {
	k := Key(12345)
	if len(k) != 14 {
		t.Fatalf("key length %d, want 14 (paper)", len(k))
	}
	if !bytes.HasPrefix(k, []byte("user")) {
		t.Fatalf("key prefix: %q", k)
	}
	if !bytes.Equal(Key(12345), Key(12345)) {
		t.Fatal("keys must be deterministic")
	}
	if bytes.Equal(Key(1), Key(2)) {
		t.Fatal("distinct ids must give distinct keys")
	}
}

func TestKeysScattered(t *testing.T) {
	// Sequential ids must not produce sequential keys (hashed insert
	// order): adjacent ids should differ in their leading digits often.
	adjacentClose := 0
	for i := uint64(0); i < 1000; i++ {
		a, b := Key(i), Key(i+1)
		if bytes.Equal(a[:8], b[:8]) {
			adjacentClose++
		}
	}
	if adjacentClose > 10 {
		t.Fatalf("%d/1000 adjacent ids share an 8-byte prefix: not scattered", adjacentClose)
	}
}

func TestValueRoundTrip(t *testing.T) {
	f := func(i uint64) bool {
		v := Value(i)
		if len(v) != 8 {
			return false
		}
		var got uint64
		for b := 7; b >= 0; b-- {
			got = got<<8 | uint64(v[b])
		}
		return got == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformBounds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := uniform(r, 100)
		if v >= 100 {
			t.Fatalf("uniform out of range: %d", v)
		}
	}
	if uniform(r, 0) != 0 {
		t.Fatal("empty range must return 0")
	}
}

// memDB is a trivial in-memory DB for runner tests.
type memDB struct {
	mu sync.Mutex
	m  map[string][]byte

	reads, updates, inserts, scans atomic.Int64
}

func newMemDB() *memDB { return &memDB{m: make(map[string][]byte)} }

func (d *memDB) Read(key []byte) error {
	d.reads.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	_ = d.m[string(key)]
	return nil
}
func (d *memDB) Update(key, val []byte) error {
	d.updates.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[string(key)] = val
	return nil
}
func (d *memDB) Insert(key, val []byte) error {
	d.inserts.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[string(key)] = val
	return nil
}
func (d *memDB) Scan(start []byte, count int) (int, error) {
	d.scans.Add(1)
	return count, nil
}

func TestLoadInsertsAll(t *testing.T) {
	db := newMemDB()
	if err := Load(db, 0, 1000, 7); err != nil {
		t.Fatal(err)
	}
	if len(db.m) != 1000 {
		t.Fatalf("loaded %d records", len(db.m))
	}
	if db.inserts.Load() != 1000 {
		t.Fatalf("insert count %d", db.inserts.Load())
	}
}

// batchMemDB extends memDB with WriteBatch, counting batch calls.
type batchMemDB struct {
	memDB
	batches atomic.Int64
}

func (d *batchMemDB) WriteBatch(keys, vals [][]byte) error {
	d.batches.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range keys {
		d.m[string(keys[i])] = vals[i]
	}
	return nil
}

func TestLoadBatchedUsesBatches(t *testing.T) {
	db := &batchMemDB{memDB: memDB{m: make(map[string][]byte)}}
	if err := LoadBatched(db, 0, 1000, 3, 64); err != nil {
		t.Fatal(err)
	}
	if len(db.m) != 1000 {
		t.Fatalf("loaded %d records", len(db.m))
	}
	if db.inserts.Load() != 0 {
		t.Fatalf("batched load fell back to %d single inserts", db.inserts.Load())
	}
	// 3 threads × ceil((1000/3)/64) ≈ 18 batches, far fewer than 1000.
	if n := db.batches.Load(); n == 0 || n > 30 {
		t.Fatalf("unexpected batch count %d", n)
	}
	// batchSize 1 degrades to per-key inserts.
	db2 := &batchMemDB{memDB: memDB{m: make(map[string][]byte)}}
	if err := LoadBatched(db2, 0, 100, 2, 1); err != nil {
		t.Fatal(err)
	}
	if db2.batches.Load() != 0 || db2.inserts.Load() != 100 {
		t.Fatalf("batchSize 1 should insert singly: %d batches, %d inserts",
			db2.batches.Load(), db2.inserts.Load())
	}
}

func TestRunnerMixRoughlyHonored(t *testing.T) {
	db := newMemDB()
	r := &Runner{
		DB:      db,
		W:       Workload{ReadProp: 0.7, UpdateProp: 0.2, InsertProp: 0.1, RecordCount: 100},
		Threads: 4,
		Seed:    9,
	}
	rep := r.Run(150 * time.Millisecond)
	if rep.Ops < 100 {
		t.Fatalf("too few ops to judge mix: %d", rep.Ops)
	}
	reads := float64(db.reads.Load()) / float64(rep.Ops)
	if reads < 0.6 || reads > 0.8 {
		t.Fatalf("read fraction %f, want ≈0.7", reads)
	}
	if rep.Throughput <= 0 {
		t.Fatal("throughput not computed")
	}
	if rep.PerOp[OpRead].Count != db.reads.Load() {
		t.Fatalf("per-op counts: %d vs %d", rep.PerOp[OpRead].Count, db.reads.Load())
	}
}

func TestRunnerThrottleCapsRate(t *testing.T) {
	db := newMemDB()
	r := &Runner{
		DB:              db,
		W:               Workload{ReadProp: 1, RecordCount: 100},
		Threads:         4,
		TargetOpsPerSec: 2000,
		Seed:            10,
	}
	rep := r.Run(300 * time.Millisecond)
	if rep.Throughput > 3000 {
		t.Fatalf("throttle ignored: %.0f ops/s", rep.Throughput)
	}
	if rep.Throughput < 500 {
		t.Fatalf("throttle too aggressive: %.0f ops/s", rep.Throughput)
	}
}

func TestRunnerScanAccounting(t *testing.T) {
	db := newMemDB()
	r := &Runner{
		DB:      db,
		W:       Workload{ScanProp: 1, ScanLength: 50, RecordCount: 100},
		Threads: 2,
		Seed:    11,
	}
	rep := r.Run(100 * time.Millisecond)
	if rep.KeysScanned != db.scans.Load()*50 {
		t.Fatalf("keys scanned %d for %d scans", rep.KeysScanned, db.scans.Load())
	}

	// A scan that runs off the end of the key space returns fewer keys than
	// asked; KeysScanned counts what came back.
	short := &shortScanDB{memDB: newMemDB()}
	r = &Runner{
		DB:      short,
		W:       Workload{ScanProp: 1, ScanLength: 50, RecordCount: 100},
		Threads: 2,
		Seed:    12,
	}
	rep = r.Run(100 * time.Millisecond)
	scans := short.scans.Load()
	if scans == 0 || rep.KeysScanned != short.returned.Load() {
		t.Fatalf("keys scanned %d, DB returned %d in %d scans", rep.KeysScanned, short.returned.Load(), scans)
	}
	if rep.KeysScanned >= scans*50 {
		t.Fatalf("keys scanned %d for %d short scans of at most 49 keys", rep.KeysScanned, scans)
	}
}

// shortScanDB returns between 0 and count-1 keys per scan, depending on the
// start key, and totals what it returned.
type shortScanDB struct {
	*memDB
	returned atomic.Int64
}

func (d *shortScanDB) Scan(start []byte, count int) (int, error) {
	d.scans.Add(1)
	n := int(start[len(start)-1]) % count
	d.returned.Add(int64(n))
	return n, nil
}

func TestOpKindStrings(t *testing.T) {
	if OpRead.String() != "read" || OpUpdate.String() != "update" ||
		OpInsert.String() != "insert" || OpScan.String() != "scan" {
		t.Fatal("op kind strings")
	}
}
