package minuet

import (
	"bytes"
	"errors"
	"hash/fnv"
	"testing"

	"minuet/internal/alloc"
	"minuet/internal/core"
	"minuet/internal/netsim"
	"minuet/internal/rpcnet"
	"minuet/internal/sinfonia"
)

// ownershipRig is one tree seen through the calls the ownership rule covers,
// so the same script runs on a linear tree, a branching tree and a tree whose
// memnodes sit behind rpcnet.
type ownershipRig struct {
	put   func(k, v []byte) error
	batch func(keys, vals [][]byte) error
	get   func(k []byte) ([]byte, bool, error)
	get2  func(k []byte) ([]byte, bool, error) // a second proxy handle
	// freeze makes the current state a read-only version and returns a scan
	// of that version.
	freeze func() (scan func() ([]KV, error), err error)
}

func digestKVs(t *testing.T, scan func() ([]KV, error)) uint64 {
	t.Helper()
	kvs, err := scan()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, kv := range kvs {
		h.Write(kv.Key)
		h.Write([]byte{0})
		h.Write(kv.Val)
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func scribble(b []byte) {
	for i := range b {
		b[i] = '#'
	}
}

// TestReturnedValuesArePrivate pins the ownership rule at the public
// boundary: reads search the fetched node image in place — over the
// in-process transport that image is the memnode's own stored slice — so a
// value handed to the caller must be a copy, and a value handed in by the
// caller must have been copied by the time the write returns. The test
// scribbles over both and checks that the tip, a second proxy handle and a
// frozen version still hold the original bytes.
func TestReturnedValuesArePrivate(t *testing.T) {
	rigs := map[string]func(t *testing.T) ownershipRig{
		"linear": func(t *testing.T) ownershipRig {
			c := newTestCluster(t, Options{Machines: 2})
			tree, err := c.CreateTree("own")
			if err != nil {
				t.Fatal(err)
			}
			tree2, err := c.OpenTree("own", 1)
			if err != nil {
				t.Fatal(err)
			}
			return ownershipRig{
				put: tree.Put,
				batch: func(keys, vals [][]byte) error {
					b := tree.NewBatch()
					for i := range keys {
						b.Put(keys[i], vals[i])
					}
					return tree.WriteBatch(b)
				},
				get:  tree.Get,
				get2: tree2.Get,
				freeze: func() (func() ([]KV, error), error) {
					s, err := tree.Snapshot()
					return func() ([]KV, error) { return tree.ScanSnapshot(s, nil, 1000) }, err
				},
			}
		},
		"branching": func(t *testing.T) ownershipRig {
			c := newTestCluster(t, Options{Machines: 2, Branching: true})
			tree, err := c.CreateTree("own")
			if err != nil {
				t.Fatal(err)
			}
			tree2, err := c.OpenTree("own", 1)
			if err != nil {
				t.Fatal(err)
			}
			// Work on a what-if clone beside the mainline, addressed by id.
			if _, err := tree.Branch(1); err != nil {
				t.Fatal(err)
			}
			cur, err := tree.Branch(1)
			if err != nil {
				t.Fatal(err)
			}
			return ownershipRig{
				put: func(k, v []byte) error { return tree.PutAt(cur.Sid, k, v) },
				batch: func(keys, vals [][]byte) error {
					b := tree.NewBatch()
					for i := range keys {
						b.Put(keys[i], vals[i])
					}
					return tree.WriteBatchAt(cur.Sid, b)
				},
				get:  func(k []byte) ([]byte, bool, error) { return tree.GetAt(cur.Sid, k) },
				get2: func(k []byte) ([]byte, bool, error) { return tree2.GetAt(cur.Sid, k) },
				freeze: func() (func() ([]KV, error), error) {
					frozen := cur
					next, err := tree.Branch(cur.Sid)
					cur = next
					return func() ([]KV, error) { return tree.ScanSnapshot(frozen, nil, 1000) }, err
				},
			}
		},
		"rpcnet": func(t *testing.T) ownershipRig {
			addrs, nodes, shutdown := startTCPMemnodes(t, 2)
			t.Cleanup(shutdown)
			open := func(create bool) *core.BTree {
				tr := rpcnet.NewClient(addrs)
				t.Cleanup(func() { tr.Close() })
				sc := sinfonia.NewClient(tr, nodes)
				al := alloc.New(sc, 512, 8)
				cfg := core.Config{NodeSize: 512, MaxLeafKeys: 8, MaxInnerKeys: 8, DirtyTraversals: true}
				mk := core.Open
				if create {
					mk = core.Create
				}
				bt, err := mk(sc, al, 0, nodes[0], cfg)
				if err != nil {
					t.Fatal(err)
				}
				return bt
			}
			bt, bt2 := open(true), open(false)
			return ownershipRig{
				put: func(k, v []byte) error { return bt.Put(k, v) },
				batch: func(keys, vals [][]byte) error {
					ops := make([]core.BatchOp, len(keys))
					for i := range keys {
						ops[i] = core.BatchOp{Key: keys[i], Val: vals[i]}
					}
					return bt.ApplyBatch(ops)
				},
				get:  func(k []byte) ([]byte, bool, error) { return bt.Get(k) },
				get2: func(k []byte) ([]byte, bool, error) { return bt2.Get(k) },
				freeze: func() (func() ([]KV, error), error) {
					s, err := bt.CreateSnapshot()
					return func() ([]KV, error) { return bt.ScanSnapshot(s, nil, 1000) }, err
				},
			}
		},
	}
	for name, build := range rigs {
		t.Run(name, func(t *testing.T) {
			r := build(t)
			want := map[string]string{}
			// Enough keys for several leaves, written singly and in a batch;
			// every value buffer is scribbled over once its call has returned.
			var keys, vals [][]byte
			for i := 0; i < 40; i++ {
				k := []byte{'k', byte('a' + i/26), byte('a' + i%26)}
				v := bytes.Repeat([]byte{byte('A' + i%26)}, 5+i%7)
				want[string(k)] = string(v)
				if i%2 == 0 {
					if err := r.put(k, v); err != nil {
						t.Fatal(err)
					}
					scribble(v)
					continue
				}
				keys, vals = append(keys, k), append(vals, v)
			}
			if err := r.batch(keys, vals); err != nil {
				t.Fatal(err)
			}
			for _, v := range vals {
				scribble(v)
			}

			scan, err := r.freeze()
			if err != nil {
				t.Fatal(err)
			}
			frozen := digestKVs(t, scan)

			// Scribble over everything Get hands back.
			for k, w := range want {
				v, ok, err := r.get([]byte(k))
				if err != nil || !ok || string(v) != w {
					t.Fatalf("get %q = %q %v %v, want %q", k, v, ok, err, w)
				}
				scribble(v)
			}
			for k, w := range want {
				for who, get := range map[string]func([]byte) ([]byte, bool, error){"same handle": r.get, "second handle": r.get2} {
					v, ok, err := get([]byte(k))
					if err != nil || !ok || string(v) != w {
						t.Fatalf("%s: get %q = %q %v %v after scribbling, want %q", who, k, v, ok, err, w)
					}
				}
			}
			if got := digestKVs(t, scan); got != frozen {
				t.Fatalf("frozen version changed under scribbling: digest %x, was %x", got, frozen)
			}
		})
	}
}

// TestWriteTooLargeRefused: a key or value the node format cannot carry is
// refused with ErrTooLarge before anything is written — it used to panic the
// process inside the encoder.
func TestWriteTooLargeRefused(t *testing.T) {
	c := newTestCluster(t, Options{Machines: 2, Branching: true})
	tree, err := c.CreateTree("big")
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.CreateTree("other")
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, 70000)
	fits := make([]byte, 65535)
	if err := tree.Put([]byte("fits"), fits); err != nil {
		t.Fatalf("a 65535-byte value must fit: %v", err)
	}
	if v, ok, err := tree.Get([]byte("fits")); err != nil || !ok || !bytes.Equal(v, fits) {
		t.Fatalf("65535-byte value: len %d %v %v", len(v), ok, err)
	}

	batch := tree.NewBatch()
	batch.Put([]byte("b1"), []byte("v1"))
	batch.Put([]byte("b2"), huge)
	batch.Put([]byte("b3"), []byte("v3"))
	tip, err := tree.ResolveTip(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"Put value":    func() error { return tree.Put([]byte("k"), huge) },
		"Put key":      func() error { return tree.Put(huge, []byte("v")) },
		"PutAt":        func() error { return tree.PutAt(tip, []byte("k"), huge) },
		"Delete key":   func() error { _, err := tree.Delete(huge); return err },
		"WriteBatch":   func() error { return tree.WriteBatch(batch) },
		"WriteBatchAt": func() error { return tree.WriteBatchAt(tip, batch) },
		"Tx.Put": func() error {
			return c.Txn([]*Tree{tree, other}, func(tx *Tx) error {
				if err := tx.Put(other, []byte("o"), []byte("v")); err != nil {
					return err
				}
				return tx.Put(tree, []byte("k"), huge)
			})
		},
		"Tx.WriteBatch": func() error {
			return c.Txn([]*Tree{tree}, func(tx *Tx) error { return tx.WriteBatch(tree, batch) })
		},
	} {
		if err := call(); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: got %v, want ErrTooLarge", name, err)
		}
	}
	// Nothing of the refused calls landed: not the good ops of the batch, not
	// the other tree's half of the transaction.
	for _, k := range []string{"k", "b1", "b3"} {
		if _, ok, err := tree.Get([]byte(k)); err != nil || ok {
			t.Errorf("key %q visible after a refused write (%v)", k, err)
		}
	}
	if _, ok, err := other.Get([]byte("o")); err != nil || ok {
		t.Errorf("transaction half-applied (%v)", err)
	}
}

// startTCPMemnodes boots n in-process memnodes behind real TCP listeners and
// returns their address map plus a shutdown func.
func startTCPMemnodes(t testing.TB, n int) (map[netsim.NodeID]string, []sinfonia.NodeID, func()) {
	t.Helper()
	addrs := make(map[netsim.NodeID]string, n)
	nodes := make([]sinfonia.NodeID, n)
	servers := make([]*rpcnet.Server, 0, n)
	for i := 0; i < n; i++ {
		id := sinfonia.NodeID(i)
		nodes[i] = id
		srv, err := rpcnet.Listen("127.0.0.1:0", sinfonia.NewMemnode(id))
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		addrs[netsim.NodeID(i)] = srv.Addr()
	}
	return addrs, nodes, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}
