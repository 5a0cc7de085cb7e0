package minuet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minuet/internal/dyntx"
)

// TestKitchenSinkStress runs everything at once on one cluster for a while:
// concurrent writers and readers on the tip, snapshot analytics, periodic
// garbage collection, and memnode fail-over — then verifies the final state
// key by key. This is the closest the suite gets to the paper's mixed
// workload, compressed into a unit test.
func TestKitchenSinkStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	c := NewCluster(Options{
		Machines:    4,
		Replicate:   true,
		NodeSize:    512,
		MaxLeafKeys: 8, MaxInnerKeys: 8,
	})
	defer c.Close()
	tree, err := c.CreateTree("stress")
	if err != nil {
		t.Fatal(err)
	}

	const keys = 500
	enc := func(v uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return b[:]
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
	for i := 0; i < keys; i++ {
		if err := tree.Put(key(i), enc(0)); err != nil {
			t.Fatal(err)
		}
	}

	var (
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		writes  atomic.Int64
		reads   atomic.Int64
		scans   atomic.Int64
		gcFreed atomic.Int64
	)

	// Writers: monotonically increase per-key counters (per-key monotonic
	// values let readers detect lost or reordered updates). The
	// read-modify-write runs as ONE transaction: a separate Get followed by
	// a blind Put would let a writer stalled between the two (fail-over,
	// busy-lock backoff, scheduling) legally commit a stale value later —
	// a serializable history that still regresses the counter, which is
	// not the lost-update signal this test is after.
	perKeyMax := make([]atomic.Uint64, keys)
	for w := 0; w < 4; w++ {
		h, err := c.OpenTree("stress", w%c.Machines())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, h *Tree) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := r.Intn(keys)
				var next uint64
				err := c.Txn([]*Tree{h}, func(tx *Tx) error {
					v, ok, err := tx.Get(h, key(i))
					if err != nil || !ok {
						next = 0
						return err // transient during fail-over
					}
					next = binary.LittleEndian.Uint64(v) + 1
					return tx.Put(h, key(i), enc(next))
				})
				// Fail-over errors are tolerated; spending the whole retry
				// budget is not: that is a livelock, not contention.
				var gu *dyntx.GiveUpError
				if errors.As(err, &gu) {
					t.Errorf("writer %d gave up: %v", w, err)
					return
				}
				if err == nil && next > 0 {
					// Track the highest value ever written per key. Racy
					// upward-only update is fine for a lower bound.
					for {
						cur := perKeyMax[i].Load()
						if next <= cur || perKeyMax[i].CompareAndSwap(cur, next) {
							break
						}
					}
					writes.Add(1)
				}
			}
		}(w, h)
	}

	// Readers: values never exceed the max the writers recorded... they
	// can't (single source of truth); instead assert decodability and count.
	for rdr := 0; rdr < 2; rdr++ {
		h, err := c.OpenTree("stress", rdr%c.Machines())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h *Tree) {
			defer wg.Done()
			r := rand.New(rand.NewSource(77))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok, err := h.Get(key(r.Intn(keys))); err == nil && ok && len(v) == 8 {
					reads.Add(1)
				}
			}
		}(h)
	}

	// Analyst: snapshot + full scan; within one snapshot, two consecutive
	// scans must agree exactly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := tree.Snapshot()
			if err != nil {
				continue
			}
			a, err1 := tree.ScanSnapshot(snap, nil, keys+10)
			b, err2 := tree.ScanSnapshot(snap, nil, keys+10)
			if err1 != nil || err2 != nil {
				continue
			}
			if len(a) != len(b) {
				t.Errorf("snapshot %d unstable: %d vs %d rows", snap.Sid, len(a), len(b))
				return
			}
			for i := range a {
				if string(a[i].Key) != string(b[i].Key) || string(a[i].Val) != string(b[i].Val) {
					t.Errorf("snapshot %d content drifted at %s", snap.Sid, a[i].Key)
					return
				}
			}
			scans.Add(1)
		}
	}()

	// Garbage collector: keep the 3 most recent snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			if n, err := tree.CollectGarbage(3); err == nil {
				gcFreed.Add(int64(n))
			}
		}
	}()

	// Chaos: one fail-over mid-run.
	time.Sleep(300 * time.Millisecond)
	c.Internal().CrashMachine(2)
	if err := c.Internal().RecoverMachine(2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)

	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Final verification: every key decodes and its value is at least the
	// highest successful write we recorded (Put-then-record means the tree
	// may be ahead by in-flight writes, never behind).
	for i := 0; i < keys; i++ {
		v, ok, err := tree.Get(key(i))
		if err != nil || !ok {
			t.Fatalf("key %d lost: %v %v", i, ok, err)
		}
		got := binary.LittleEndian.Uint64(v)
		if want := perKeyMax[i].Load(); got < want {
			t.Fatalf("key %d regressed: %d < %d (lost update)", i, got, want)
		}
	}
	t.Logf("stress: %d writes, %d reads, %d stable snapshot scans, %d nodes GC'd",
		writes.Load(), reads.Load(), scans.Load(), gcFreed.Load())
	if writes.Load() == 0 || reads.Load() == 0 || scans.Load() == 0 {
		t.Fatal("a workload leg starved")
	}
}

// TestStressBranching pounds several writable branches concurrently and
// verifies cross-branch isolation at the end.
func TestStressBranching(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	c := NewCluster(Options{Machines: 2, Branching: true, Beta: 2, NodeSize: 512, MaxLeafKeys: 8, MaxInnerKeys: 8})
	defer c.Close()
	tree, err := c.CreateTree("branches")
	if err != nil {
		t.Fatal(err)
	}
	const keys = 60
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	for i := 0; i < keys; i++ {
		if err := tree.PutAt(1, key(i), []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	b2, err := tree.Branch(1)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := tree.Branch(1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for gi, sid := range []uint64{b2.Sid, b3.Sid} {
		h, err := c.OpenTree("branches", gi%c.Machines())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(sid uint64, h *Tree, tag string) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(sid)))
			for n := 0; n < 300; n++ {
				i := r.Intn(keys)
				if err := h.PutAt(sid, key(i), []byte(fmt.Sprintf("%s-%d", tag, n))); err != nil {
					t.Errorf("branch %d: %v", sid, err)
					return
				}
			}
		}(sid, h, fmt.Sprintf("b%d", sid))
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Baseline untouched; branches contain only their own tags.
	for i := 0; i < keys; i++ {
		v, ok, err := tree.GetAt(1, key(i))
		if err != nil || !ok || string(v) != "base" {
			t.Fatalf("baseline key %d: %q %v %v", i, v, ok, err)
		}
		for _, sid := range []uint64{b2.Sid, b3.Sid} {
			v, ok, err := tree.GetAt(sid, key(i))
			if err != nil || !ok {
				t.Fatalf("branch %d key %d: %v %v", sid, i, ok, err)
			}
			tag := fmt.Sprintf("b%d-", sid)
			if string(v) != "base" && string(v[:len(tag)]) != tag {
				t.Fatalf("branch %d key %d has foreign value %q", sid, i, v)
			}
		}
	}
}
