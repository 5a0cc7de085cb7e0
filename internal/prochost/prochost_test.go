package prochost

import (
	"errors"
	"testing"
	"time"

	"minuet/internal/alloc"
	"minuet/internal/core"
	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
)

// startCluster boots an n-node process cluster, skipping under -short
// (spawning real processes and a `go build` is too heavy for the race CI
// lane).
func startCluster(t *testing.T, n int, replicate bool) *Cluster {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-process harness: skipped under -short")
	}
	c, err := Start(Options{Nodes: n, Replicate: replicate})
	if err != nil {
		t.Fatalf("start %d-node process cluster: %v", n, err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestThreeNodeBootAndMinitransactions boots three server processes and
// runs minitransactions — including a distributed 2PC — across them.
func TestThreeNodeBootAndMinitransactions(t *testing.T) {
	c := startCluster(t, 3, false)
	tr := c.NewTransport()
	defer tr.Close()
	sc := sinfonia.NewClient(tr, c.NodeIDs())

	for i := 0; i < 3; i++ {
		p := sinfonia.Ptr{Node: sinfonia.NodeID(i), Addr: 4096}
		if err := sc.Write(p, []byte{byte(i)}); err != nil {
			t.Fatalf("write node %d: %v", i, err)
		}
	}
	// Distributed minitransaction spanning all three processes.
	if _, err := sc.Exec(&sinfonia.Minitx{
		Compares: []sinfonia.CompareItem{{Node: 0, Addr: 4096, Version: 1}},
		Writes: []sinfonia.WriteItem{
			{Node: 1, Addr: 8192, Data: []byte("x")},
			{Node: 2, Addr: 8192, Data: []byte("y")},
		},
	}); err != nil {
		t.Fatalf("2PC across processes: %v", err)
	}
	r, err := sc.Read(sinfonia.Ptr{Node: 2, Addr: 8192})
	if err != nil || !r.Exists || string(r.Data) != "y" {
		t.Fatalf("2PC write lost: %+v %v", r, err)
	}
}

// TestBTreeOverProcessCluster runs the full B-tree stack — create, batched
// load, snapshot, scan — against server processes.
func TestBTreeOverProcessCluster(t *testing.T) {
	c := startCluster(t, 3, false)
	tr := c.NewTransport()
	defer tr.Close()
	sc := sinfonia.NewClient(tr, c.NodeIDs())
	al := alloc.New(sc, 512, 8)
	cfg := core.Config{NodeSize: 512, MaxLeafKeys: 8, MaxInnerKeys: 8, DirtyTraversals: true}
	bt, err := core.Create(sc, al, 0, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	ops := make([]core.BatchOp, 0, 64)
	for i := 0; i < n; {
		ops = ops[:0]
		for ; i < n && len(ops) < 64; i++ {
			ops = append(ops, core.BatchOp{Key: key(i), Val: val(i)})
		}
		if err := bt.ApplyBatch(ops); err != nil {
			t.Fatalf("batch at %d: %v", i, err)
		}
	}
	snap, err := bt.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := bt.ScanSnapshot(snap, nil, n+10)
	if err != nil || len(kvs) != n {
		t.Fatalf("snapshot scan over processes: %d keys, %v", len(kvs), err)
	}
}

// TestKillAndRespawn kills a server process mid-cluster and checks that
// callers see errors (not hangs), then respawns it and checks it serves
// again.
func TestKillAndRespawn(t *testing.T) {
	c := startCluster(t, 3, false)
	tr := c.NewTransport()
	defer tr.Close()
	sc := sinfonia.NewClient(tr, c.NodeIDs())

	p := sinfonia.Ptr{Node: 1, Addr: 4096}
	if err := sc.Write(p, []byte("before")); err != nil {
		t.Fatal(err)
	}

	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	// Calls to the dead process must fail promptly.
	done := make(chan error, 1)
	go func() {
		_, err := sc.Read(p)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read from killed process succeeded")
		}
		if !errors.Is(err, netsim.ErrUnreachable) {
			t.Fatalf("want ErrUnreachable from killed process, got %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("read from killed process hung")
	}

	// Respawn on the same port: fresh empty state, serving again.
	if err := c.Respawn(1); err != nil {
		t.Fatalf("respawn: %v", err)
	}
	if err := Retry(100, 20*time.Millisecond, func() error {
		_, err := sc.Read(p)
		return err
	}); err != nil {
		t.Fatalf("read after respawn: %v", err)
	}
	r, err := sc.Read(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Exists {
		t.Fatal("respawned memnode kept state across the kill (memnodes are in-memory)")
	}
}

// TestReplicatedRing boots with -backup wiring and checks a write to a
// primary is mirrored on its backup process.
func TestReplicatedRing(t *testing.T) {
	c := startCluster(t, 2, true)
	tr := c.NewTransport()
	defer tr.Close()
	sc := sinfonia.NewClient(tr, c.NodeIDs())
	if err := sc.Write(sinfonia.Ptr{Node: 0, Addr: 4096}, []byte("mirrored")); err != nil {
		t.Fatal(err)
	}
	// The backup (process 1) holds node 0's replica; its snapshot-state RPC
	// exposes what it mirrors.
	resp, err := tr.Call(1, &sinfonia.SnapshotStateReq{})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := resp.(*sinfonia.SnapshotStateResp)
	if !ok {
		t.Fatalf("unexpected response %T", resp)
	}
	found := false
	for _, mr := range st.Mirrors {
		for _, w := range mr.Rec.Writes {
			if mr.From == 0 && string(w.Data) == "mirrored" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("write not mirrored to backup process (%d mirror records)", len(st.Mirrors))
	}
}

func key(i int) []byte { return []byte("key-" + itoa(i)) }
func val(i int) []byte { return []byte("val-" + itoa(i)) }

func itoa(i int) string {
	// fixed-width so key order is byte order
	const digits = "0123456789"
	out := make([]byte, 6)
	for p := 5; p >= 0; p-- {
		out[p] = digits[i%10]
		i /= 10
	}
	return string(out)
}
