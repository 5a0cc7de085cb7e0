package alloc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
	"minuet/internal/space"
)

func newCluster(n int) (*netsim.Local, []sinfonia.NodeID) {
	tr := netsim.NewLocal(0)
	nodes := make([]sinfonia.NodeID, n)
	for i := 0; i < n; i++ {
		nodes[i] = sinfonia.NodeID(i)
		tr.Bind(nodes[i], sinfonia.NewMemnode(nodes[i]))
	}
	return tr, nodes
}

func TestAllocUniqueAndAligned(t *testing.T) {
	tr, nodes := newCluster(2)
	a := New(sinfonia.NewClient(tr, nodes), 256, 4)
	seen := map[sinfonia.Ptr]bool{}
	for i := 0; i < 100; i++ {
		p, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if p.IsNil() || seen[p] {
			t.Fatalf("duplicate or nil allocation %v", p)
		}
		if p.Addr < space.DynamicBase || (p.Addr-space.DynamicBase)%256 != 0 {
			t.Fatalf("misaligned allocation %v", p)
		}
		seen[p] = true
	}
}

func TestRoundRobinBalances(t *testing.T) {
	tr, nodes := newCluster(4)
	a := New(sinfonia.NewClient(tr, nodes), 128, 2)
	counts := map[sinfonia.NodeID]int{}
	for i := 0; i < 80; i++ {
		p, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		counts[p.Node]++
	}
	for n, c := range counts {
		if c != 20 {
			t.Fatalf("node %d got %d blocks, want 20", n, c)
		}
	}
}

// TestConcurrentAllocatorsNeverCollide is the allocator's central safety
// property: independent proxies (own Allocator instances, shared Sinfonia
// state) must never hand out the same block.
func TestConcurrentAllocatorsNeverCollide(t *testing.T) {
	tr, nodes := newCluster(2)
	const proxies, perProxy = 6, 60
	var mu sync.Mutex
	seen := map[sinfonia.Ptr]int{}
	var wg sync.WaitGroup
	for p := 0; p < proxies; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			a := New(sinfonia.NewClient(tr, nodes), 128, 4)
			for i := 0; i < perProxy; i++ {
				ptr, err := a.AllocOn(nodes[i%2])
				if err != nil {
					t.Errorf("proxy %d: %v", p, err)
					return
				}
				mu.Lock()
				if prev, dup := seen[ptr]; dup {
					t.Errorf("block %v allocated by both proxy %d and %d", ptr, prev, p)
				}
				seen[ptr] = p
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
}

func TestFreeAndReuse(t *testing.T) {
	tr, nodes := newCluster(1)
	c := sinfonia.NewClient(tr, nodes)
	a := New(c, 128, 1) // extent of 1: every alloc consults shared state
	p1, err := a.AllocOn(0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.AllocOn(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p2); err != nil {
		t.Fatal(err)
	}
	// LIFO reuse from the free list.
	r1, err := a.AllocOn(0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.AllocOn(0)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != p2 || r2 != p1 {
		t.Fatalf("free-list reuse: got %v,%v want %v,%v", r1, r2, p2, p1)
	}
	allocs, frees := a.Stats()
	if allocs != 4 || frees != 2 {
		t.Fatalf("stats: %d/%d", allocs, frees)
	}
}

func TestFreeNilRejected(t *testing.T) {
	tr, nodes := newCluster(1)
	a := New(sinfonia.NewClient(tr, nodes), 128, 1)
	if err := a.Free(sinfonia.NilPtr); err == nil {
		t.Fatal("freeing nil must fail")
	}
}

// TestQuickAllocFreeCycles: arbitrary interleavings of alloc and free keep
// the "no live block handed out twice" invariant.
func TestQuickAllocFreeCycles(t *testing.T) {
	tr, nodes := newCluster(1)
	a := New(sinfonia.NewClient(tr, nodes), 64, 2)
	live := map[sinfonia.Ptr]bool{}
	var liveList []sinfonia.Ptr

	f := func(allocate bool) bool {
		if allocate || len(liveList) == 0 {
			p, err := a.AllocOn(0)
			if err != nil || live[p] {
				return false
			}
			live[p] = true
			liveList = append(liveList, p)
			return true
		}
		p := liveList[len(liveList)-1]
		liveList = liveList[:len(liveList)-1]
		delete(live, p)
		return a.Free(p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBumpSharedAcrossAllocators(t *testing.T) {
	// Two allocators share the bump pointer through Sinfonia: their extents
	// must not overlap.
	tr, nodes := newCluster(1)
	a1 := New(sinfonia.NewClient(tr, nodes), 128, 4)
	a2 := New(sinfonia.NewClient(tr, nodes), 128, 4)
	seen := map[sinfonia.Ptr]bool{}
	for i := 0; i < 20; i++ {
		p1, err := a1.AllocOn(0)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := a2.AllocOn(0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p1] || seen[p2] || p1 == p2 {
			t.Fatalf("overlap: %v %v", p1, p2)
		}
		seen[p1], seen[p2] = true, true
	}
}

// racingTransport stands in for another proxy that always wins the race:
// before a compare-and-swap reaches its memnode, it rewrites the compared
// cell with the contents it already holds, so the version the CAS observed
// is always stale.
type racingTransport struct {
	netsim.Transport
	other *sinfonia.Client // unwrapped, so its own writes are not raced
}

func (r racingTransport) Call(to netsim.NodeID, req any) (any, error) {
	if ec, ok := req.(*sinfonia.ExecCommitReq); ok && len(ec.Compares) > 0 {
		cell := sinfonia.Ptr{Node: ec.Compares[0].Node, Addr: ec.Compares[0].Addr}
		cur, err := r.other.Read(cell)
		if err != nil {
			return nil, err
		}
		if err := r.other.Write(cell, cur.Data); err != nil {
			return nil, err
		}
	}
	return r.Transport.Call(to, req)
}

// TestCASLoopsGiveUpWithinBudget: each of the allocator's compare-and-swap
// loops — the bump pointer, popping the free list, pushing onto it — keeps
// losing to a racing writer and returns ErrContended once its backoff budget
// is spent, instead of spinning forever. The three run at once, on separate
// clusters, and the budget passes on a virtual clock that all three advance.
func TestCASLoopsGiveUpWithinBudget(t *testing.T) {
	v := new(netsim.Virtual)
	defer netsim.SetClock(netsim.SetClock(v))
	loops := map[string]func(fair, raced *Allocator) error{
		"bumpExtent": func(_, raced *Allocator) error {
			_, err := raced.AllocOn(0)
			return err
		},
		"popFree": func(fair, raced *Allocator) error {
			p, err := fair.AllocOn(0)
			if err == nil {
				err = fair.Free(p)
			}
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			_, err = raced.AllocOn(0)
			return err
		},
		"Free": func(fair, raced *Allocator) error {
			p, err := fair.AllocOn(0)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			return raced.Free(p)
		},
	}
	type result struct {
		name    string
		err     error
		elapsed time.Duration
	}
	done := make(chan result, len(loops))
	for name, op := range loops {
		tr, nodes := newCluster(1)
		fairC := sinfonia.NewClient(tr, nodes)
		fair := New(fairC, 256, 4)
		if _, err := fair.AllocOn(0); err != nil { // the bump pointer exists
			t.Fatal(err)
		}
		raced := New(sinfonia.NewClient(racingTransport{tr, fairC}, nodes), 256, 4)
		go func() {
			start := v.Now()
			err := op(fair, raced)
			done <- result{name, err, v.Now().Sub(start)}
		}()
	}
	timeout := time.After(sinfonia.RetryBudget + time.Second)
	for range loops {
		select {
		case r := <-done:
			if !errors.Is(r.err, ErrContended) {
				t.Errorf("%s: want ErrContended, got %v", r.name, r.err)
			} else if r.elapsed < sinfonia.RetryBudget {
				t.Errorf("%s: gave up after %v, inside the %v budget", r.name, r.elapsed, sinfonia.RetryBudget)
			}
		case <-timeout:
			t.Fatalf("a loop is still retrying after %v", sinfonia.RetryBudget+time.Second)
		}
	}
}
