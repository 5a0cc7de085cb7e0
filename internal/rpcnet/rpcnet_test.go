package rpcnet

import (
	"fmt"
	"sync"
	"testing"

	"minuet/internal/alloc"
	"minuet/internal/core"
	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
)

// startCluster launches n memnodes as TCP servers on loopback and returns a
// TCP client transport addressing them.
func startCluster(t *testing.T, n int) (*Client, []sinfonia.NodeID, func()) {
	t.Helper()
	addrs := make(map[netsim.NodeID]string, n)
	servers := make([]*Server, 0, n)
	nodes := make([]sinfonia.NodeID, n)
	for i := 0; i < n; i++ {
		id := sinfonia.NodeID(i)
		nodes[i] = id
		srv, err := Listen("127.0.0.1:0", sinfonia.NewMemnode(id))
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		addrs[id] = srv.Addr()
	}
	client := NewClient(addrs)
	cleanup := func() {
		client.Close()
		for _, s := range servers {
			s.Close()
		}
	}
	return client, nodes, cleanup
}

func TestMinitransactionOverTCP(t *testing.T) {
	tr, nodes, cleanup := startCluster(t, 2)
	defer cleanup()
	c := sinfonia.NewClient(tr, nodes)

	// Single-node write/read.
	p := sinfonia.Ptr{Node: 0, Addr: 4096}
	if err := c.Write(p, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	r, err := c.Read(p)
	if err != nil || !r.Exists || string(r.Data) != "over tcp" {
		t.Fatalf("read back: %+v %v", r, err)
	}

	// Distributed minitransaction (2PC over sockets).
	_, err = c.Exec(&sinfonia.Minitx{
		Compares: []sinfonia.CompareItem{{Node: 0, Addr: 4096, Version: 1}},
		Writes: []sinfonia.WriteItem{
			{Node: 0, Addr: 5000, Data: []byte("a")},
			{Node: 1, Addr: 5000, Data: []byte("b")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, _ = c.Read(sinfonia.Ptr{Node: 1, Addr: 5000})
	if string(r.Data) != "b" {
		t.Fatalf("2PC write lost: %q", r.Data)
	}

	// Comparison failure propagates.
	_, err = c.Exec(&sinfonia.Minitx{
		Compares: []sinfonia.CompareItem{{Node: 1, Addr: 5000, Version: 42}},
	})
	if !sinfonia.IsCompareFailed(err) {
		t.Fatalf("want compare failure over TCP, got %v", err)
	}
}

func TestBTreeOverTCP(t *testing.T) {
	tr, nodes, cleanup := startCluster(t, 3)
	defer cleanup()
	c := sinfonia.NewClient(tr, nodes)
	al := alloc.New(c, 512, 8)
	cfg := core.Config{NodeSize: 512, MaxLeafKeys: 8, MaxInnerKeys: 8, DirtyTraversals: true}
	bt, err := core.Create(c, al, 0, nodes[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := bt.Put([]byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	snap, err := bt.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := bt.Put([]byte(fmt.Sprintf("k%06d", i)), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot still reads the old values across real sockets.
	v, ok, err := bt.GetSnap(snap, []byte("k000007"))
	if err != nil || !ok || string(v) != "v7" {
		t.Fatalf("snapshot over tcp: %q %v %v", v, ok, err)
	}
	kvs, err := bt.ScanTip(nil, n+10)
	if err != nil || len(kvs) != n {
		t.Fatalf("scan over tcp: %d %v", len(kvs), err)
	}
}

func TestConcurrentClientsOverTCP(t *testing.T) {
	tr, nodes, cleanup := startCluster(t, 2)
	defer cleanup()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := sinfonia.NewClient(tr, nodes)
			for i := 0; i < 50; i++ {
				p := sinfonia.Ptr{Node: sinfonia.NodeID(i % 2), Addr: sinfonia.Addr(10000 + g*1000 + i)}
				if err := c.Write(p, []byte{byte(g), byte(i)}); err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNodeAddressUpdate(t *testing.T) {
	tr, nodes, cleanup := startCluster(t, 1)
	defer cleanup()
	c := sinfonia.NewClient(tr, nodes[:1])
	if err := c.Write(sinfonia.Ptr{Node: 0, Addr: 64}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Point node 0 at a fresh server (fail-over); the old data is gone but
	// the transport must seamlessly re-dial.
	srv2, err := Listen("127.0.0.1:0", sinfonia.NewMemnode(0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	tr.SetAddr(0, srv2.Addr())
	r, err := c.Read(sinfonia.Ptr{Node: 0, Addr: 64})
	if err != nil {
		t.Fatal(err)
	}
	if r.Exists {
		t.Fatal("fresh server should not have the item")
	}
}

func TestUnknownNode(t *testing.T) {
	tr := NewClient(nil)
	_, err := tr.Call(99, &sinfonia.StatsReq{})
	if err == nil {
		t.Fatal("want error for unknown node")
	}
}
