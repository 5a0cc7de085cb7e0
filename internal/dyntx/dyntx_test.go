package dyntx

import (
	"errors"
	"sync"
	"testing"
	"time"

	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
)

func newCluster(n int) (*netsim.Local, *sinfonia.Client) {
	tr := netsim.NewLocal(0)
	nodes := make([]sinfonia.NodeID, n)
	for i := 0; i < n; i++ {
		nodes[i] = sinfonia.NodeID(i)
		tr.Bind(nodes[i], sinfonia.NewMemnode(nodes[i]))
	}
	return tr, sinfonia.NewClient(tr, nodes)
}

func ref(node sinfonia.NodeID, addr sinfonia.Addr) Ref {
	return Ref{Ptr: sinfonia.Ptr{Node: node, Addr: addr}}
}

func repRef(node sinfonia.NodeID, addr sinfonia.Addr) Ref {
	return Ref{Ptr: sinfonia.Ptr{Node: node, Addr: addr}, Replicated: true}
}

func TestReadWriteCommit(t *testing.T) {
	_, c := newCluster(1)
	tx := New(c)
	obj, err := tx.Read(ref(0, 100))
	if err != nil || obj.Exists {
		t.Fatalf("fresh read: %+v %v", obj, err)
	}
	tx.Write(ref(0, 100), []byte("v1"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// A second transaction observes the write.
	tx2 := New(c)
	obj, err = tx2.Read(ref(0, 100))
	if err != nil || !obj.Exists || string(obj.Data) != "v1" {
		t.Fatalf("after commit: %+v %v", obj, err)
	}
}

func TestValidationDetectsConflict(t *testing.T) {
	_, c := newCluster(1)
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 50}, []byte("base")); err != nil {
		t.Fatal(err)
	}
	tx := New(c)
	if _, err := tx.Read(ref(0, 50)); err != nil {
		t.Fatal(err)
	}
	// Concurrent writer bumps the object.
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 50}, []byte("sneaky")); err != nil {
		t.Fatal(err)
	}
	tx.Write(ref(0, 50), []byte("mine"))
	err := tx.Commit()
	if !IsStale(err) {
		t.Fatalf("want StaleError, got %v", err)
	}
	var se *StaleError
	errors.As(err, &se)
	if len(se.Refs) != 1 || se.Refs[0].Ptr.Addr != 50 {
		t.Fatalf("stale refs: %+v", se.Refs)
	}
	r, _ := c.Read(sinfonia.Ptr{Node: 0, Addr: 50})
	if string(r.Data) != "sneaky" {
		t.Fatal("aborted txn must not write")
	}
}

func TestDirtyReadSkipsValidation(t *testing.T) {
	_, c := newCluster(1)
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 50}, []byte("base")); err != nil {
		t.Fatal(err)
	}
	tx := New(c)
	if _, err := tx.DirtyRead(ref(0, 50)); err != nil {
		t.Fatal(err)
	}
	if tx.ReadSetSize() != 0 {
		t.Fatal("dirty read joined the read set")
	}
	// The object changes; the transaction must still commit (it never
	// promised to validate the dirty read).
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 50}, []byte("changed")); err != nil {
		t.Fatal(err)
	}
	tx.Write(ref(0, 60), []byte("elsewhere"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("dirty read must not be validated: %v", err)
	}
}

func TestWriteValidatedPromotesToReadSet(t *testing.T) {
	_, c := newCluster(1)
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 50}, []byte("base")); err != nil {
		t.Fatal(err)
	}
	tx := New(c)
	obj, err := tx.DirtyRead(ref(0, 50))
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent update invalidates the version we saw.
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 50}, []byte("raced")); err != nil {
		t.Fatal(err)
	}
	tx.WriteValidated(ref(0, 50), []byte("mine"), obj.Version)
	if err := tx.Commit(); !IsStale(err) {
		t.Fatalf("WriteValidated must validate the observed version: %v", err)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	_, c := newCluster(1)
	tx := New(c)
	tx.Write(ref(0, 10), []byte("pending"))
	obj, err := tx.Read(ref(0, 10))
	if err != nil || string(obj.Data) != "pending" {
		t.Fatalf("read-own-write: %+v %v", obj, err)
	}
	obj, err = tx.DirtyRead(ref(0, 10))
	if err != nil || string(obj.Data) != "pending" {
		t.Fatalf("dirty read-own-write: %+v %v", obj, err)
	}
}

// TestWriteValidatedOfOwnWriteCommits rewrites a block the attempt already
// wrote blind, as a batch does with a node it copied into a recycled block
// earlier in the same attempt. The write-set hit reports version 0, which
// must not turn into a compare against a block whose memnode version is ≥ 1.
func TestWriteValidatedOfOwnWriteCommits(t *testing.T) {
	_, c := newCluster(1)
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 10}, []byte("freed")); err != nil {
		t.Fatal(err)
	}
	tx := New(c)
	tx.Write(ref(0, 10), []byte("copy"))
	obj, err := tx.DirtyRead(ref(0, 10))
	if err != nil || string(obj.Data) != "copy" {
		t.Fatalf("dirty read-own-write: %+v %v", obj, err)
	}
	tx.WriteValidated(ref(0, 10), []byte("copy, edited"), obj.Version)
	if n := tx.ReadSetSize(); n != 0 {
		t.Fatalf("own write joined the read set: %d entries", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("rewrite of an own write: %v", err)
	}
	if r, _ := c.Read(sinfonia.Ptr{Node: 0, Addr: 10}); string(r.Data) != "copy, edited" {
		t.Fatalf("committed %q", r.Data)
	}
}

// TestDirtyReadServesReadSet: once an attempt has read an object, a dirty
// read returns the same image with no round trip.
func TestDirtyReadServesReadSet(t *testing.T) {
	_, c := newCluster(1)
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 10}, []byte("seen")); err != nil {
		t.Fatal(err)
	}
	tx := New(c)
	first, err := tx.Read(ref(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 10}, []byte("moved")); err != nil {
		t.Fatal(err)
	}
	rts := tx.Roundtrips
	obj, err := tx.DirtyRead(ref(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if tx.Roundtrips != rts {
		t.Fatalf("dirty read of a read-set object cost %d round trip(s)", tx.Roundtrips-rts)
	}
	if string(obj.Data) != "seen" || obj.Version != first.Version {
		t.Fatalf("dirty read returned %q@%d, read set holds %q@%d", obj.Data, obj.Version, first.Data, first.Version)
	}
}

// TestInjectReadOfOwnWriteAddsNoCompare: a cached image injected for an
// object the attempt already writes is ignored; the pending write stands.
func TestInjectReadOfOwnWriteAddsNoCompare(t *testing.T) {
	_, c := newCluster(1)
	tx := New(c)
	tx.Write(ref(0, 10), []byte("pending"))
	tx.InjectRead(ref(0, 10), 99, []byte("cached"), true)
	if n := tx.ReadSetSize(); n != 0 {
		t.Fatalf("injected read of an own write joined the read set: %d entries", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyValidatedCommitIsFree(t *testing.T) {
	tr, c := newCluster(1)
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 10}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	tx := New(c)
	if _, err := tx.Read(ref(0, 10)); err != nil {
		t.Fatal(err)
	}
	before := tr.Stats().Calls
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Calls != before {
		t.Fatal("validated read-only commit should cost zero round trips")
	}
}

func TestPiggybackValidationAborts(t *testing.T) {
	_, c := newCluster(1)
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 10}, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 20}, []byte("b")); err != nil {
		t.Fatal(err)
	}
	tx := New(c)
	if _, err := tx.Read(ref(0, 10)); err != nil {
		t.Fatal(err)
	}
	// Invalidate the first read before the second; the second read's
	// piggy-backed comparison must detect it immediately.
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 10}, []byte("a2")); err != nil {
		t.Fatal(err)
	}
	_, err := tx.Read(ref(0, 20))
	if !IsStale(err) {
		t.Fatalf("piggy-backed validation should fail early: %v", err)
	}
	if !tx.Aborted() {
		t.Fatal("transaction should be aborted")
	}
}

func TestInjectReadValidatesCachedVersion(t *testing.T) {
	_, c := newCluster(1)
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 10}, []byte("cached")); err != nil {
		t.Fatal(err)
	}
	// Simulate a proxy cache that saw version 1.
	tx := New(c)
	tx.InjectRead(ref(0, 10), 1, []byte("cached"), true)
	tx.Write(ref(0, 99), []byte("w"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("fresh cache: %v", err)
	}
	// Stale cache: object has moved to version 2 behind our back.
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 10}, []byte("moved")); err != nil {
		t.Fatal(err)
	}
	tx2 := New(c)
	tx2.InjectRead(ref(0, 10), 1, []byte("cached"), true)
	tx2.Write(ref(0, 99), []byte("w2"))
	if err := tx2.Commit(); !IsStale(err) {
		t.Fatalf("stale injected read must abort: %v", err)
	}
}

func TestReplicatedObjectAnchoring(t *testing.T) {
	tr, c := newCluster(3)
	// Replicated object at addr 7 on every node, versions in lockstep.
	m := &sinfonia.Minitx{}
	for n := sinfonia.NodeID(0); n < 3; n++ {
		m.Writes = append(m.Writes, sinfonia.WriteItem{Node: n, Addr: 7, Data: []byte("rep")})
	}
	if _, err := c.Exec(m); err != nil {
		t.Fatal(err)
	}
	// Read the replica on node 0, write a plain object on node 2: the
	// commit must retarget the replicated compare to node 2 and stay
	// single-node (one ExecCommit round trip).
	tx := New(c)
	if _, err := tx.Read(repRef(0, 7)); err != nil {
		t.Fatal(err)
	}
	tx.Write(ref(2, 500), []byte("x"))
	before := tr.Stats().PerNode
	b0, b1 := before[0], before[1]
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := tr.Stats().PerNode
	if after[0] != b0 || after[1] != b1 {
		t.Fatal("commit touched nodes other than the anchor")
	}
}

func TestReplicatedWriteUpdatesAllReplicas(t *testing.T) {
	_, c := newCluster(3)
	tx := New(c)
	tx.Write(repRef(1, 7), []byte("everywhere"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for n := sinfonia.NodeID(0); n < 3; n++ {
		r, err := c.Read(sinfonia.Ptr{Node: n, Addr: 7})
		if err != nil || string(r.Data) != "everywhere" {
			t.Fatalf("replica %d: %+v %v", n, r, err)
		}
	}
}

func TestRunRetriesUntilSuccess(t *testing.T) {
	_, c := newCluster(1)
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 10}, []byte("seed")); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	err := Run(c, RunOptions{}, func(tx *Txn) error {
		attempts++
		if attempts < 3 {
			return ErrRetry
		}
		obj, err := tx.Read(ref(0, 10))
		if err != nil {
			return err
		}
		tx.Write(ref(0, 10), append(obj.Data, '!'))
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("run: %v after %d attempts", err, attempts)
	}
	r, _ := c.Read(sinfonia.Ptr{Node: 0, Addr: 10})
	if string(r.Data) != "seed!" {
		t.Fatalf("final value %q", r.Data)
	}
}

func TestRunPropagatesFatalErrors(t *testing.T) {
	_, c := newCluster(1)
	boom := errors.New("boom")
	err := Run(c, RunOptions{}, func(tx *Txn) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("fatal error swallowed: %v", err)
	}
}

// TestRunDiscardsFailedAttempts: an attempt that does not commit gives back
// what it reserved — Run calls Discard, so OnDiscard callbacks run, for a
// retried attempt and for one that fails fatally alike.
func TestRunDiscardsFailedAttempts(t *testing.T) {
	_, c := newCluster(1)
	attempts, discarded := 0, 0
	err := Run(c, RunOptions{}, func(tx *Txn) error {
		attempts++
		tx.OnDiscard(func() { discarded++ })
		if attempts == 1 {
			return ErrRetry
		}
		tx.Write(ref(0, 10), []byte("x"))
		return nil
	})
	if err != nil || attempts != 2 || discarded != 1 {
		t.Fatalf("run: %v; %d attempts, %d discarded, want 2 and 1", err, attempts, discarded)
	}
	boom := errors.New("boom")
	discarded = 0
	err = Run(c, RunOptions{}, func(tx *Txn) error {
		tx.OnDiscard(func() { discarded++ })
		return boom
	})
	if !errors.Is(err, boom) || discarded != 1 {
		t.Fatalf("fatal attempt: %v, %d discarded, want 1", err, discarded)
	}
}

// TestRunGivesUpWithinBudget: a body that always asks for a retry ends in
// *GiveUpError once the backoff budget is spent. The error counts every
// attempt by cause and still matches ErrRetry, and the AfterAttempt hook saw
// each attempt. The budget passes on a virtual clock.
func TestRunGivesUpWithinBudget(t *testing.T) {
	v := new(netsim.Virtual)
	defer netsim.SetClock(netsim.SetClock(v))
	_, c := newCluster(1)
	hooked := 0
	opts := RunOptions{AfterAttempt: func(tx *Txn, attempt int, err error) {
		if attempt != hooked || !errors.Is(err, ErrRetry) {
			t.Errorf("hook: attempt %d (want %d), err %v", attempt, hooked, err)
		}
		hooked++
	}}
	start := v.Now()
	done := make(chan error, 1)
	go func() { done <- Run(c, opts, func(*Txn) error { return ErrRetry }) }()
	var err error
	select {
	case err = <-done:
	case <-time.After(sinfonia.RetryBudget + time.Second):
		t.Fatalf("still retrying after %v", sinfonia.RetryBudget+time.Second)
	}
	var gu *GiveUpError
	if !errors.As(err, &gu) || !errors.Is(err, ErrRetry) {
		t.Fatalf("want *GiveUpError wrapping ErrRetry, got %v", err)
	}
	if gu.Stale+gu.Retry+gu.Aborted != gu.Attempts || gu.Retry != gu.Attempts || gu.Attempts != hooked {
		t.Fatalf("counts %+v do not add up to %d attempts (hook saw %d)", gu, gu.Attempts, hooked)
	}
	if el := v.Now().Sub(start); el < sinfonia.RetryBudget || gu.Elapsed > el {
		t.Fatalf("gave up after %v (reported %v), budget %v", el, gu.Elapsed, sinfonia.RetryBudget)
	}
}

func TestConcurrentCountersConverge(t *testing.T) {
	// N goroutines increment a shared counter through dynamic transactions;
	// OCC must serialize them so no increment is lost.
	_, c := newCluster(2)
	if err := c.Write(sinfonia.Ptr{Node: 1, Addr: 11}, []byte{0}); err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				err := Run(c, RunOptions{}, func(tx *Txn) error {
					obj, err := tx.Read(ref(1, 11))
					if err != nil {
						return err
					}
					tx.Write(ref(1, 11), []byte{obj.Data[0] + 1})
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	r, _ := c.Read(sinfonia.Ptr{Node: 1, Addr: 11})
	if int(r.Data[0]) != workers*each {
		t.Fatalf("lost increments: %d != %d", r.Data[0], workers*each)
	}
}

func TestAbortedTxnRefusesWork(t *testing.T) {
	_, c := newCluster(1)
	tx := New(c)
	tx.Abort()
	if _, err := tx.Read(ref(0, 1)); !errors.Is(err, ErrAborted) {
		t.Fatal("read after abort")
	}
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatal("commit after abort")
	}
}
