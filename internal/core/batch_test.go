package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"minuet/internal/dyntx"
	"minuet/internal/wire"
)

func batchKey(i int) wire.Key { return wire.Key(fmt.Sprintf("b%05d", i)) }

// TestBatchBasic round-trips a small batch through an empty tree.
func TestBatchBasic(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	ops := []BatchOp{
		{Key: batchKey(3), Val: []byte("three")},
		{Key: batchKey(1), Val: []byte("one")},
		{Key: batchKey(2), Val: []byte("two")},
	}
	if err := e.bt.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		v, ok, err := e.bt.Get(batchKey(i))
		if err != nil || !ok {
			t.Fatalf("key %d: %v %v", i, ok, err)
		}
		want := []string{"", "one", "two", "three"}[i]
		if string(v) != want {
			t.Fatalf("key %d: got %q want %q", i, v, want)
		}
	}
}

// TestBatchLargeMultiwaySplit loads hundreds of keys into a tiny-fanout
// tree with a single batch — far more than one split per leaf can absorb —
// and checks every key plus all structural invariants.
func TestBatchLargeMultiwaySplit(t *testing.T) {
	e := newEnv(t, 2, smallCfg()) // 4 keys per leaf/inner node
	const n = 500
	ops := make([]BatchOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, BatchOp{Key: batchKey(i), Val: []byte(fmt.Sprintf("v%d", i))})
	}
	rand.New(rand.NewSource(7)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	if err := e.bt.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := e.bt.Get(batchKey(i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: %q %v %v", i, v, ok, err)
		}
	}
	sid, root := tipRoot(t, e)
	if got := walkInvariants(t, e, root, sid); got != n {
		t.Fatalf("tree holds %d keys, want %d", got, n)
	}
}

// TestBatchLegacyTraversals loads a batch in legacy mode (dirty traversals
// OFF), where traversals fetch node+seq pairs via DirtyReadMany: the sweep
// must observe its own parent rewrites through the write-set shadow, and
// must not inject bogus validations for seq entries it has itself written.
func TestBatchLegacyTraversals(t *testing.T) {
	cfg := smallCfg()
	cfg.DirtyTraversals = false
	e := newEnv(t, 2, cfg)
	const n = 300
	ops := make([]BatchOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, BatchOp{Key: batchKey(i), Val: []byte(fmt.Sprintf("v%d", i))})
	}
	if err := e.bt.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := e.bt.Get(batchKey(i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: %q %v %v", i, v, ok, err)
		}
	}
	sid, root := tipRoot(t, e)
	if got := walkInvariants(t, e, root, sid); got != n {
		t.Fatalf("tree holds %d keys, want %d", got, n)
	}
}

// TestBatchMixedAndDelete applies updates, deletes, and inserts in one
// batch over an existing tree.
func TestBatchMixedAndDelete(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	for i := 0; i < 40; i++ {
		if err := e.bt.Put(batchKey(i), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	var ops []BatchOp
	for i := 0; i < 40; i += 2 {
		ops = append(ops, BatchOp{Key: batchKey(i), Val: []byte("new")})
	}
	for i := 1; i < 40; i += 4 {
		ops = append(ops, BatchOp{Key: batchKey(i), Delete: true})
	}
	ops = append(ops, BatchOp{Key: batchKey(100), Val: []byte("fresh")})
	if err := e.bt.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		v, ok, err := e.bt.Get(batchKey(i))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i%2 == 0:
			if !ok || string(v) != "new" {
				t.Fatalf("key %d: %q %v", i, v, ok)
			}
		case i%4 == 1:
			if ok {
				t.Fatalf("key %d should be deleted", i)
			}
		default:
			if !ok || string(v) != "old" {
				t.Fatalf("key %d: %q %v", i, v, ok)
			}
		}
	}
	if v, ok, _ := e.bt.Get(batchKey(100)); !ok || string(v) != "fresh" {
		t.Fatalf("inserted key: %q %v", v, ok)
	}
	sid, root := tipRoot(t, e)
	walkInvariants(t, e, root, sid)
}

// TestBatchDuplicateKeysLastWins checks normalization semantics.
func TestBatchDuplicateKeysLastWins(t *testing.T) {
	e := newEnv(t, 1, smallCfg())
	ops := []BatchOp{
		{Key: batchKey(1), Val: []byte("a")},
		{Key: batchKey(1), Val: []byte("b")},
		{Key: batchKey(2), Val: []byte("x")},
		{Key: batchKey(2), Delete: true},
		{Key: batchKey(3), Delete: true},
		{Key: batchKey(3), Val: []byte("resurrected")},
	}
	if err := e.bt.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := e.bt.Get(batchKey(1)); !ok || string(v) != "b" {
		t.Fatalf("key 1: %q %v", v, ok)
	}
	if _, ok, _ := e.bt.Get(batchKey(2)); ok {
		t.Fatal("key 2 should not exist")
	}
	if v, ok, _ := e.bt.Get(batchKey(3)); !ok || string(v) != "resurrected" {
		t.Fatalf("key 3: %q %v", v, ok)
	}
}

// TestBatchRoundTripsAmortized verifies the headline property: a big batch
// issues far fewer memnode round trips per write than single-key puts.
func TestBatchRoundTripsAmortized(t *testing.T) {
	cfg := Config{NodeSize: 4096, MaxLeafKeys: 64, MaxInnerKeys: 64, DirtyTraversals: true}
	e := newEnv(t, 4, cfg)
	// Preload so interior structure exists and caches are warm.
	for i := 0; i < 2000; i++ {
		if err := e.bt.Put(batchKey(i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}

	const n = 256
	calls0 := e.tr.Stats().Calls
	for i := 0; i < n; i++ {
		if err := e.bt.Put(batchKey(i*7%2000), []byte("single")); err != nil {
			t.Fatal(err)
		}
	}
	singleCalls := e.tr.Stats().Calls - calls0

	ops := make([]BatchOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, BatchOp{Key: batchKey(i * 7 % 2000), Val: []byte("batched")})
	}
	calls1 := e.tr.Stats().Calls
	if err := e.bt.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	batchCalls := e.tr.Stats().Calls - calls1

	t.Logf("256 single puts: %d calls; one 256-op batch: %d calls", singleCalls, batchCalls)
	if batchCalls*10 > singleCalls {
		t.Fatalf("batch not amortized: %d batch calls vs %d single calls", batchCalls, singleCalls)
	}
	sid, root := tipRoot(t, e)
	walkInvariants(t, e, root, sid)
}

// TestBatchConcurrentSingleWriters runs batches against concurrent
// single-key writers on overlapping keys; both must make progress and the
// final state must be one of the legal outcomes per key.
func TestBatchConcurrentSingleWriters(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	const n = 60
	for i := 0; i < n; i++ {
		if err := e.bt.Put(batchKey(i), []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	proxy := e.openProxy(t, 1)
	done := make(chan error, 1)
	go func() {
		for round := 0; round < 20; round++ {
			for i := 0; i < n; i += 3 {
				if err := proxy.Put(batchKey(i), []byte("single")); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	for round := 0; round < 20; round++ {
		ops := make([]BatchOp, 0, n/2)
		for i := 0; i < n; i += 2 {
			ops = append(ops, BatchOp{Key: batchKey(i), Val: []byte("batched")})
		}
		if err := e.bt.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := e.bt.Get(batchKey(i))
		if err != nil || !ok {
			t.Fatalf("key %d: %v %v", i, ok, err)
		}
		s := string(v)
		legal := s == "base" || s == "single" || s == "batched"
		if !legal {
			t.Fatalf("key %d has impossible value %q", i, v)
		}
	}
	sid, root := tipRoot(t, e)
	walkInvariants(t, e, root, sid)
}

// TestOneProxyConcurrentBatches is the multi-process smoke's shape run
// in-process: one proxy handle shared by eight goroutines, each applying
// 64-key batches over its share of 5,000 scrambled keys. Every batch must
// commit, and a walk of the committed tree through child pointers must reach
// every acknowledged key. A batch re-descends once per leaf group, so a
// parent it rewrote earlier in the attempt must come from its own write set:
// a copy another goroutine put back in the shared cache lacks the
// separators the attempt added, and rebuilding from it orphans a sibling.
func TestOneProxyConcurrentBatches(t *testing.T) {
	e := newEnv(t, 3, Config{NodeSize: 4096, DirtyTraversals: true})
	const n, workers, batch = 5000, 8, 64
	keys := make([]wire.Key, n)
	distinct := make(map[string]bool, n)
	for i := range keys {
		h := fnv.New64a()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		h.Write(b[:])
		keys[i] = key(int(h.Sum64() % 10_000_000_000))
		distinct[string(keys[i])] = true
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i += batch {
				ops := make([]BatchOp, 0, batch)
				for j := i; j < min(i+batch, hi); j++ {
					ops = append(ops, BatchOp{Key: keys[j], Val: val(j)})
				}
				if err := e.bt.ApplyBatch(ops); err != nil {
					t.Errorf("batch at %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	sid, root := tipRoot(t, e)
	if got := walkInvariants(t, e, root, sid); got != len(distinct) {
		t.Fatalf("tree reaches %d keys, %d acknowledged", got, len(distinct))
	}
}

// TestBatchesAfterGC alternates snapshot, batch and collection. Each batch
// copies the parents the previous snapshot froze, GC then frees those
// parents' old images, and the next batch both descends past freed blocks
// still named by cached parents and writes its copies into recycled blocks.
// Every round must commit promptly.
func TestBatchesAfterGC(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	const n = 400
	model := make(map[string]string, n)
	ops := make([]BatchOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, BatchOp{Key: key(i), Val: val(i)})
		model[string(key(i))] = string(val(i))
	}
	if err := e.bt.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		if _, err := e.bt.CreateSnapshot(); err != nil {
			t.Fatalf("round %d snapshot: %v", round, err)
		}
		ops = ops[:0]
		for i := round % 3; i < n; i += 3 {
			v := fmt.Sprintf("r%d-%d", round, i)
			ops = append(ops, BatchOp{Key: key(i), Val: []byte(v)})
			model[string(key(i))] = v
		}
		if err := e.bt.ApplyBatch(ops); err != nil {
			t.Fatalf("round %d batch: %v", round, err)
		}
		if _, err := e.bt.RunGCKeepRecent(1); err != nil {
			t.Fatalf("round %d GC: %v", round, err)
		}
	}
	checkTip(t, e, model)
	sid, root := tipRoot(t, e)
	if got := walkInvariants(t, e, root, sid); got != n {
		t.Fatalf("tip holds %d keys, want %d", got, n)
	}
}

// TestWriteTooLarge: every write entry point refuses a key or value the
// 16-bit record length cannot carry, whole and before touching the
// transaction, while records at the limit — and the over-64-KiB node images
// they make, which take the view's 32-bit offset table — work.
func TestWriteTooLarge(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	huge := make([]byte, maxRecordLen+1)
	good := BatchOp{Key: batchKey(1), Val: []byte("ok")}
	for _, tc := range []struct {
		name string
		ops  []BatchOp
	}{
		{"put value", []BatchOp{{Key: batchKey(0), Val: huge}}},
		{"put key", []BatchOp{{Key: huge, Val: []byte("v")}}},
		{"delete key", []BatchOp{{Key: huge, Delete: true}}},
		{"batch, bad op in the middle", []BatchOp{good, {Key: batchKey(2), Val: huge}, {Key: batchKey(3), Val: []byte("ok")}}},
	} {
		if err := e.bt.ApplyBatch(tc.ops); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: ApplyBatch: got %v, want ErrTooLarge", tc.name, err)
		}
		txn := dyntx.New(e.c)
		if err := e.bt.BatchTxn(txn, tc.ops); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: BatchTxn: got %v, want ErrTooLarge", tc.name, err)
		}
		if txn.ReadSetSize() != 0 || txn.Commit() != nil || txn.Roundtrips != 0 {
			t.Errorf("%s: refused write left something in the transaction", tc.name)
		}
	}
	if err := e.bt.Put(batchKey(0), huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Put: got %v, want ErrTooLarge", err)
	}
	if _, err := e.bt.Remove(huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Remove: got %v, want ErrTooLarge", err)
	}
	if kvs, err := e.bt.ScanTip(nil, 10); err != nil || len(kvs) != 0 {
		t.Fatalf("refused writes left %d keys behind (%v)", len(kvs), err)
	}

	// At the limit: three maximal values share a leaf (4 keys per leaf).
	atLimit := make([]byte, maxRecordLen)
	for i := range atLimit {
		atLimit[i] = byte(i)
	}
	for i := 0; i < 3; i++ {
		if err := e.bt.Put(batchKey(i), atLimit); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := e.bt.ScanTip(nil, 10)
	if err != nil || len(kvs) != 3 {
		t.Fatalf("scan: %d keys, %v", len(kvs), err)
	}
	for i, kv := range kvs {
		if !bytes.Equal(kv.Key, batchKey(i)) || !bytes.Equal(kv.Val, atLimit) {
			t.Fatalf("pair %d mangled (key %q, %d-byte value)", i, kv.Key, len(kv.Val))
		}
	}
	if v, ok, err := e.bt.Get(batchKey(2)); err != nil || !ok || !bytes.Equal(v, atLimit) {
		t.Fatalf("get at the limit: %d bytes, %v %v", len(v), ok, err)
	}
}
