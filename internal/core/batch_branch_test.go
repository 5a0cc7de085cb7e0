package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"minuet/internal/dyntx"
)

// versionRoot fetches sid's current root straight from the catalog replica.
func versionRoot(t *testing.T, e *testEnv, sid uint64) Ptr {
	t.Helper()
	ent, err := e.bt.cat.Refresh(sid)
	if err != nil {
		t.Fatalf("catalog refresh %d: %v", sid, err)
	}
	return ent.Root
}

// TestBatchBranchBasic round-trips a small batch through a fresh branching
// tree's initial writable version.
func TestBatchBranchBasic(t *testing.T) {
	e := newEnv(t, 2, branchCfg(2))
	ops := []BatchOp{
		{Key: batchKey(3), Val: []byte("three")},
		{Key: batchKey(1), Val: []byte("one")},
		{Key: batchKey(2), Val: []byte("two")},
	}
	if err := e.bt.ApplyBatchAt(1, ops); err != nil {
		t.Fatal(err)
	}
	want := []string{"", "one", "two", "three"}
	for i := 1; i <= 3; i++ {
		v, ok, err := e.bt.GetAt(1, batchKey(i))
		if err != nil || !ok || string(v) != want[i] {
			t.Fatalf("key %d: %q %v %v", i, v, ok, err)
		}
	}
}

// TestNotBranching: every version-addressed or catalog-reading entry point
// returns ErrNotBranching on a linear tree (the single-key ones used to
// dereference the absent catalog and panic).
func TestNotBranching(t *testing.T) {
	e := newEnv(t, 1, smallCfg())
	k, ops := batchKey(1), []BatchOp{{Key: batchKey(1), Val: []byte("x")}}
	for name, call := range map[string]func() error{
		"PutAt":        func() error { return e.bt.PutAt(1, k, []byte("x")) },
		"GetAt":        func() error { _, _, err := e.bt.GetAt(1, k); return err },
		"RemoveAt":     func() error { _, err := e.bt.RemoveAt(1, k); return err },
		"ScanAt":       func() error { _, err := e.bt.ScanAt(1, nil, 10); return err },
		"ApplyBatchAt": func() error { return e.bt.ApplyBatchAt(1, ops) },
		"BatchTxnAt": func() error {
			return e.bt.run(func(tx *dyntx.Txn) error { return e.bt.BatchTxnAt(tx, 1, ops) })
		},
		"CreateBranch": func() error { _, err := e.bt.CreateBranch(1); return err },
		"ResolveTip":   func() error { _, err := e.bt.ResolveTip(1); return err },
		"ListVersions": func() error { _, err := e.bt.ListVersions(); return err },
		"DiffVersions": func() error { _, err := e.bt.DiffVersions(1, 1, 0); return err },
		"KeyHistory":   func() error { _, err := e.bt.KeyHistory(1, k); return err },
	} {
		if err := call(); !errors.Is(err, ErrNotBranching) {
			t.Errorf("%s on linear tree: %v", name, err)
		}
	}
	// The tree is still healthy, and un-addressed calls still work.
	if err := e.bt.Put(k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := e.bt.Get(k); err != nil || !ok || string(v) != "x" {
		t.Fatalf("get after rejected calls: %q %v %v", v, ok, err)
	}
}

// TestBatchBranchMultiwaySplit loads hundreds of keys into a tiny-fanout
// branch with a single batch — multi-way splits plus multi-level root growth
// where every split node is a fresh CoW copy and the root lands in the
// snapshot catalog — then checks every key and the structural invariants.
func TestBatchBranchMultiwaySplit(t *testing.T) {
	e := newEnv(t, 2, branchCfg(2))
	for i := 0; i < 40; i++ {
		if err := e.bt.PutAt(1, batchKey(i*10), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	br, err := e.bt.CreateBranch(1)
	if err != nil {
		t.Fatal(err)
	}

	const n = 500
	ops := make([]BatchOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, BatchOp{Key: batchKey(i), Val: []byte(fmt.Sprintf("v%d", i))})
	}
	rand.New(rand.NewSource(7)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	if err := e.bt.ApplyBatchAt(br.Sid, ops); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := e.bt.GetAt(br.Sid, batchKey(i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("branch key %d: %q %v %v", i, v, ok, err)
		}
	}
	// The frozen parent still reads its seed values only.
	for i := 0; i < 40; i++ {
		v, ok, err := e.bt.GetAt(1, batchKey(i*10))
		if err != nil || !ok || string(v) != "seed" {
			t.Fatalf("parent key %d: %q %v %v", i*10, v, ok, err)
		}
	}
	if got := walkInvariants(t, e, versionRoot(t, e, br.Sid), br.Sid); got != n {
		t.Fatalf("branch holds %d keys, want %d", got, n)
	}
	if got := walkInvariants(t, e, versionRoot(t, e, 1), 1); got != 40 {
		t.Fatalf("parent holds %d keys, want 40", got)
	}
}

// TestBatchBranchSnapshotIsolation is the CoW aliasing regression test: fork
// a branch, apply a large batch (updates, inserts, deletes) to the child,
// and byte-compare a full scan of the frozen parent against its pre-batch
// contents. Any aliasing of a frozen node by the batch's in-place writes
// would change the digest.
func TestBatchBranchSnapshotIsolation(t *testing.T) {
	e := newEnv(t, 3, branchCfg(2))
	const n = 300
	for i := 0; i < n; i++ {
		if err := e.bt.PutAt(1, batchKey(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	br, err := e.bt.CreateBranch(1)
	if err != nil {
		t.Fatal(err)
	}
	parent := Snapshot{Sid: 1, Root: versionRoot(t, e, 1)}
	want := snapshotDigest(t, e.bt, parent)

	// A batch that rewrites every key, deletes a third, and inserts fresh
	// ones — touching (and splitting) every leaf the parent shares.
	ops := make([]BatchOp, 0, 2*n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			ops = append(ops, BatchOp{Key: batchKey(i), Delete: true})
		default:
			ops = append(ops, BatchOp{Key: batchKey(i), Val: []byte(fmt.Sprintf("child%d", i))})
		}
		ops = append(ops, BatchOp{Key: batchKey(i + 10_000), Val: []byte("fresh")})
	}
	if err := e.bt.ApplyBatchAt(br.Sid, ops); err != nil {
		t.Fatal(err)
	}

	if got := snapshotDigest(t, e.bt, parent); got != want {
		t.Fatal("parent snapshot digest changed: batch aliased a frozen node")
	}
	// And through a second, cache-cold proxy too.
	cold := e.openProxy(t, e.nodes[1])
	if got := snapshotDigest(t, cold, parent); got != want {
		t.Fatal("parent digest differs on a cold proxy")
	}
	walkInvariants(t, e, versionRoot(t, e, br.Sid), br.Sid)
}

// TestBatchBranchSiblings applies batches to sibling branches and checks
// they diverge without interference.
func TestBatchBranchSiblings(t *testing.T) {
	e := newEnv(t, 2, branchCfg(2))
	const n = 60
	for i := 0; i < n; i++ {
		if err := e.bt.PutAt(1, batchKey(i), []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	b2, err := e.bt.CreateBranch(1)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := e.bt.CreateBranch(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sid uint64
		tag string
	}{{b2.Sid, "two"}, {b3.Sid, "three"}} {
		ops := make([]BatchOp, 0, n)
		for i := 0; i < n; i++ {
			ops = append(ops, BatchOp{Key: batchKey(i), Val: []byte(c.tag)})
		}
		if err := e.bt.ApplyBatchAt(c.sid, ops); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for _, c := range []struct {
			sid  uint64
			want string
		}{{1, "base"}, {b2.Sid, "two"}, {b3.Sid, "three"}} {
			v, ok, err := e.bt.GetAt(c.sid, batchKey(i))
			if err != nil || !ok || string(v) != c.want {
				t.Fatalf("sid %d key %d: %q %v %v want %q", c.sid, i, v, ok, err, c.want)
			}
		}
	}
}

// TestBatchBranchFrozenTip: batching into a branched (frozen) version fails
// with ErrNotWritable, while ApplyBatch transparently follows the mainline.
func TestBatchBranchFrozenTip(t *testing.T) {
	e := newEnv(t, 1, branchCfg(2))
	if err := e.bt.PutAt(1, batchKey(0), []byte("x")); err != nil {
		t.Fatal(err)
	}
	br, err := e.bt.CreateBranch(1)
	if err != nil {
		t.Fatal(err)
	}
	err = e.bt.ApplyBatchAt(1, []BatchOp{{Key: batchKey(0), Val: []byte("y")}})
	if !errors.Is(err, ErrNotWritable) {
		t.Fatalf("batch into frozen version: %v", err)
	}
	// The un-addressed batch follows the mainline to the new tip.
	if err := e.bt.ApplyBatch([]BatchOp{{Key: batchKey(0), Val: []byte("tip")}}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := e.bt.GetAt(br.Sid, batchKey(0))
	if err != nil || !ok || string(v) != "tip" {
		t.Fatalf("mainline batch landed wrong: %q %v %v", v, ok, err)
	}
	if v, ok, _ := e.bt.GetAt(1, batchKey(0)); !ok || string(v) != "x" {
		t.Fatalf("frozen version disturbed: %q %v", v, ok)
	}
}

// TestBatchBranchConcurrentWithSingles runs version-addressed batches
// against concurrent single-key writers on the same branch; both must make
// progress and every key must hold one of the legal values.
func TestBatchBranchConcurrentWithSingles(t *testing.T) {
	e := newEnv(t, 2, branchCfg(2))
	const n = 60
	for i := 0; i < n; i++ {
		if err := e.bt.PutAt(1, batchKey(i), []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	br, err := e.bt.CreateBranch(1)
	if err != nil {
		t.Fatal(err)
	}
	proxy := e.openProxy(t, 1)
	done := make(chan error, 1)
	go func() {
		for round := 0; round < 15; round++ {
			for i := 0; i < n; i += 3 {
				if err := proxy.PutAt(br.Sid, batchKey(i), []byte("single")); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	for round := 0; round < 15; round++ {
		ops := make([]BatchOp, 0, n/2)
		for i := 0; i < n; i += 2 {
			ops = append(ops, BatchOp{Key: batchKey(i), Val: []byte("batched")})
		}
		if err := e.bt.ApplyBatchAt(br.Sid, ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := e.bt.GetAt(br.Sid, batchKey(i))
		if err != nil || !ok {
			t.Fatalf("key %d: %v %v", i, ok, err)
		}
		if s := string(v); s != "base" && s != "single" && s != "batched" {
			t.Fatalf("key %d has impossible value %q", i, v)
		}
		// The frozen parent is untouched.
		v, ok, err = e.bt.GetAt(1, batchKey(i))
		if err != nil || !ok || string(v) != "base" {
			t.Fatalf("parent key %d: %q %v %v", i, v, ok, err)
		}
	}
	walkInvariants(t, e, versionRoot(t, e, br.Sid), br.Sid)
}

// TestBatchBranchRoundTripsAmortized verifies the acceptance property: a
// 256-key batch against a branching tree issues far fewer memnode round
// trips per key than the equivalent PutAt loop.
func TestBatchBranchRoundTripsAmortized(t *testing.T) {
	cfg := Config{NodeSize: 4096, MaxLeafKeys: 64, MaxInnerKeys: 64, DirtyTraversals: true, Branching: true, Beta: 2}
	e := newEnv(t, 4, cfg)
	for i := 0; i < 2000; i++ {
		if err := e.bt.PutAt(1, batchKey(i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	br, err := e.bt.CreateBranch(1)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the CoW paths on the branch so both measurements see the same
	// steady state (first writes after a fork copy whole paths).
	for i := 0; i < 2000; i++ {
		if err := e.bt.PutAt(br.Sid, batchKey(i), []byte("warm")); err != nil {
			t.Fatal(err)
		}
	}

	const n = 256
	calls0 := e.tr.Stats().Calls
	for i := 0; i < n; i++ {
		if err := e.bt.PutAt(br.Sid, batchKey(i*7%2000), []byte("single")); err != nil {
			t.Fatal(err)
		}
	}
	singleCalls := e.tr.Stats().Calls - calls0

	ops := make([]BatchOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, BatchOp{Key: batchKey(i * 7 % 2000), Val: []byte("batched")})
	}
	calls1 := e.tr.Stats().Calls
	if err := e.bt.ApplyBatchAt(br.Sid, ops); err != nil {
		t.Fatal(err)
	}
	batchCalls := e.tr.Stats().Calls - calls1

	t.Logf("256 PutAt: %d calls; one 256-op WriteBatchAt: %d calls", singleCalls, batchCalls)
	if batchCalls*10 > singleCalls {
		t.Fatalf("branch batch not amortized: %d batch calls vs %d single calls", batchCalls, singleCalls)
	}
	walkInvariants(t, e, versionRoot(t, e, br.Sid), br.Sid)
}
