package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"minuet/internal/alloc"
	"minuet/internal/dyntx"
	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
	"minuet/internal/wire"
)

// testEnv is an in-process cluster plus one proxy-side tree handle.
type testEnv struct {
	tr    *netsim.Local
	c     *sinfonia.Client
	al    *alloc.Allocator
	bt    *BTree
	nodes []sinfonia.NodeID
}

// smallCfg forces tiny fanout so a few dozen keys exercise splits and depth.
func smallCfg() Config {
	return Config{
		NodeSize:        512,
		MaxLeafKeys:     4,
		MaxInnerKeys:    4,
		DirtyTraversals: true,
	}
}

func newEnv(t testing.TB, numNodes int, cfg Config) *testEnv {
	t.Helper()
	tr := netsim.NewLocal(0)
	nodes := make([]sinfonia.NodeID, numNodes)
	for i := range nodes {
		nodes[i] = sinfonia.NodeID(i)
		tr.Bind(nodes[i], sinfonia.NewMemnode(nodes[i]))
	}
	c := sinfonia.NewClient(tr, nodes)
	al := alloc.New(c, cfg.NodeSize, 16)
	bt, err := Create(c, al, 0, nodes[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{tr: tr, c: c, al: al, bt: bt, nodes: nodes}
}

// openProxy returns an independent proxy handle (own client, allocator,
// caches) onto the same tree.
func (e *testEnv) openProxy(t testing.TB, local sinfonia.NodeID) *BTree {
	t.Helper()
	c := sinfonia.NewClient(e.tr, e.nodes)
	al := alloc.New(c, e.bt.cfg.NodeSize, 16)
	bt, err := Open(c, al, 0, local, e.bt.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

func key(i int) wire.Key { return wire.Key(fmt.Sprintf("user%010d", i)) }
func val(i int) []byte   { return []byte(fmt.Sprintf("v%08d", i)) }
func mustPut(t testing.TB, bt *BTree, i int) {
	t.Helper()
	if err := bt.Put(key(i), val(i)); err != nil {
		t.Fatalf("put %d: %v", i, err)
	}
}

func TestPutGetSingle(t *testing.T) {
	e := newEnv(t, 1, smallCfg())
	mustPut(t, e.bt, 42)
	v, ok, err := e.bt.Get(key(42))
	if err != nil || !ok || string(v) != string(val(42)) {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	_, ok, err = e.bt.Get(key(43))
	if err != nil || ok {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
}

func TestOverwrite(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	mustPut(t, e.bt, 1)
	if err := e.bt.Put(key(1), []byte("second")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := e.bt.Get(key(1))
	if !ok || string(v) != "second" {
		t.Fatalf("overwrite lost: %q", v)
	}
}

func TestSplitsAndDepth(t *testing.T) {
	e := newEnv(t, 3, smallCfg())
	const n = 500
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		mustPut(t, e.bt, i)
	}
	for i := 0; i < n; i++ {
		v, ok, err := e.bt.Get(key(i))
		if err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("key %d: %q %v %v", i, v, ok, err)
		}
	}
	if s := e.bt.Stats(); s.Splits == 0 {
		t.Fatal("500 keys with fanout 4 must split")
	}
}

func TestRemove(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	for i := 0; i < 100; i++ {
		mustPut(t, e.bt, i)
	}
	for i := 0; i < 100; i += 2 {
		ok, err := e.bt.Remove(key(i))
		if err != nil || !ok {
			t.Fatalf("remove %d: %v %v", i, ok, err)
		}
	}
	// Removing again reports absence.
	ok, err := e.bt.Remove(key(0))
	if err != nil || ok {
		t.Fatalf("double remove: %v %v", ok, err)
	}
	for i := 0; i < 100; i++ {
		_, ok, _ := e.bt.Get(key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d presence = %v, want %v", i, ok, want)
		}
	}
}

func TestScanTipOrdered(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	n := 200
	perm := rand.New(rand.NewSource(2)).Perm(n)
	for _, i := range perm {
		mustPut(t, e.bt, i)
	}
	kvs, err := e.bt.ScanTip(key(0), n+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != n {
		t.Fatalf("scan returned %d of %d", len(kvs), n)
	}
	if !sort.SliceIsSorted(kvs, func(i, j int) bool {
		return wire.CompareKeys(kvs[i].Key, kvs[j].Key) < 0
	}) {
		t.Fatal("scan out of order")
	}
	// Bounded scan from the middle.
	kvs, err = e.bt.ScanTip(key(100), 5)
	if err != nil || len(kvs) != 5 || string(kvs[0].Key) != string(key(100)) {
		t.Fatalf("bounded scan: %v len=%d", err, len(kvs))
	}
}

// TestModelRandomOps compares the tree against a reference map under a long
// random workload on a single proxy.
func TestModelRandomOps(t *testing.T) {
	e := newEnv(t, 3, smallCfg())
	model := map[string]string{}
	rng := rand.New(rand.NewSource(3))
	const ops = 3000
	for i := 0; i < ops; i++ {
		k := rng.Intn(400)
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // put
			v := fmt.Sprintf("v%d-%d", k, i)
			if err := e.bt.Put(key(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[string(key(k))] = v
		case 6, 7: // remove
			ok, err := e.bt.Remove(key(k))
			if err != nil {
				t.Fatal(err)
			}
			_, want := model[string(key(k))]
			if ok != want {
				t.Fatalf("remove %d: got %v want %v", k, ok, want)
			}
			delete(model, string(key(k)))
		default: // get
			v, ok, err := e.bt.Get(key(k))
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := model[string(key(k))]
			if ok != wantOK || (ok && string(v) != want) {
				t.Fatalf("get %d: got %q/%v want %q/%v", k, v, ok, want, wantOK)
			}
		}
	}
	// Final full scan must equal the model exactly.
	kvs, err := e.bt.ScanTip(nil, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(model) {
		t.Fatalf("scan size %d, model size %d", len(kvs), len(model))
	}
	for _, kv := range kvs {
		if model[string(kv.Key)] != string(kv.Val) {
			t.Fatalf("mismatch at %q", kv.Key)
		}
	}
}

// TestConcurrentProxies hammers the tree from several proxy handles at once
// on disjoint key ranges, then verifies every key.
func TestConcurrentProxies(t *testing.T) {
	e := newEnv(t, 4, smallCfg())
	const proxies = 4
	const perProxy = 250
	var wg sync.WaitGroup
	errs := make(chan error, proxies)
	for p := 0; p < proxies; p++ {
		bt := e.openProxy(t, e.nodes[p%len(e.nodes)])
		wg.Add(1)
		go func(p int, bt *BTree) {
			defer wg.Done()
			for i := 0; i < perProxy; i++ {
				k := p*perProxy + i
				if err := bt.Put(key(k), val(k)); err != nil {
					errs <- fmt.Errorf("proxy %d put %d: %w", p, k, err)
					return
				}
			}
		}(p, bt)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for k := 0; k < proxies*perProxy; k++ {
		v, ok, err := e.bt.Get(key(k))
		if err != nil || !ok || string(v) != string(val(k)) {
			t.Fatalf("key %d after concurrent load: %q %v %v", k, v, ok, err)
		}
	}
}

// TestConcurrentSameKeys has every proxy write the same key range; last
// writer wins per key, and no write may be lost entirely (each key must hold
// one of the written values).
func TestConcurrentSameKeys(t *testing.T) {
	e := newEnv(t, 3, smallCfg())
	const proxies = 3
	const keys = 60
	var wg sync.WaitGroup
	for p := 0; p < proxies; p++ {
		bt := e.openProxy(t, e.nodes[p])
		wg.Add(1)
		go func(p int, bt *BTree) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				if err := bt.Put(key(i), []byte(fmt.Sprintf("p%d", p))); err != nil {
					t.Errorf("proxy %d: %v", p, err)
					return
				}
			}
		}(p, bt)
	}
	wg.Wait()
	for i := 0; i < keys; i++ {
		v, ok, err := e.bt.Get(key(i))
		if err != nil || !ok {
			t.Fatalf("key %d: %v %v", i, ok, err)
		}
		if string(v) != "p0" && string(v) != "p1" && string(v) != "p2" {
			t.Fatalf("key %d has impossible value %q", i, v)
		}
	}
}

func TestLegacyModeBasic(t *testing.T) {
	cfg := smallCfg()
	cfg.DirtyTraversals = false
	e := newEnv(t, 3, cfg)
	const n = 300
	for i := 0; i < n; i++ {
		mustPut(t, e.bt, i)
	}
	for i := 0; i < n; i++ {
		v, ok, err := e.bt.Get(key(i))
		if err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("legacy key %d: %q %v %v", i, v, ok, err)
		}
	}
}

func TestNodeCodecRoundTrip(t *testing.T) {
	n := &Node{
		Tree:    3,
		Height:  2,
		Created: 17,
		Copied:  NoSnap,
		Redirects: []Redirect{
			{Sid: 19, Ptr: Ptr{Node: 1, Addr: 4096}},
		},
		Low:  wire.FenceAt(wire.Key("aaa")),
		High: wire.PosInf,
		Keys: []wire.Key{wire.Key("bbb"), wire.Key("ccc")},
		Kids: []Ptr{{Node: 0, Addr: 1}, {Node: 1, Addr: 2}, {Node: 2, Addr: 3}},
	}
	got, err := decodeNode(n.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Tree != n.Tree || got.Height != n.Height || got.Created != n.Created ||
		got.Copied != n.Copied || len(got.Redirects) != 1 || got.Redirects[0] != n.Redirects[0] ||
		len(got.Keys) != 2 || string(got.Keys[1]) != "ccc" || got.Kids[2] != n.Kids[2] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	h, ok := DecodeHeader(n.encode()[:HeaderLen])
	if !ok || h.Tree != 3 || h.Height != 2 || h.Created != 17 || h.Copied != NoSnap {
		t.Fatalf("header: %+v %v", h, ok)
	}
	leaf := &Node{Height: 0, Created: 1, Copied: NoSnap, Low: wire.NegInf, High: wire.FenceAt(wire.Key("m")),
		Keys: []wire.Key{wire.Key("a")}, Vals: [][]byte{[]byte("x")}}
	got, err = decodeNode(leaf.encode())
	if err != nil || string(got.Vals[0]) != "x" || !got.High.IsPosInf() == true && false {
		t.Fatalf("leaf round trip: %v", err)
	}
	if _, err := decodeNode([]byte("garbage")); err == nil {
		t.Fatal("garbage must not decode")
	}
	if _, err := decodeNode(nil); err == nil {
		t.Fatal("nil must not decode")
	}
}

func TestCreateTwiceFails(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	_, err := Create(e.c, e.al, 0, e.nodes[0], e.bt.cfg)
	if err != ErrTreeExists {
		t.Fatalf("want ErrTreeExists, got %v", err)
	}
	// A different index is fine.
	if _, err := Create(e.c, e.al, 1, e.nodes[0], e.bt.cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRootGrowthInsideOneTxn: single-key operations assembled into one
// transaction observe the root growth of the ones before them (they used to
// restart from the committed root and retry until giving up).
func TestRootGrowthInsideOneTxn(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	const n = 40
	err := e.bt.run(func(tx *dyntx.Txn) error {
		for i := 0; i < n; i++ {
			if err := e.bt.PutTxn(tx, key(i), val(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sid, root := tipRoot(t, e)
	if got := walkInvariants(t, e, root, sid); got != n {
		t.Fatalf("tip holds %d keys, want %d", got, n)
	}
}

// TestPutGivesUpWithinBudget: a Put whose every attempt finds an unreadable
// root (the descent asks for a retry each time) gives up once the backoff
// budget is spent, with a *dyntx.GiveUpError whose causes add up, and every
// attempt is charged to the handle's Stats. The budget passes on a virtual
// clock.
func TestPutGivesUpWithinBudget(t *testing.T) {
	v := new(netsim.Virtual)
	defer netsim.SetClock(netsim.SetClock(v))
	e := newEnv(t, 2, smallCfg())
	mustPut(t, e.bt, 1)
	_, root := tipRoot(t, e)
	if err := e.c.Write(root, []byte("not a node")); err != nil {
		t.Fatal(err)
	}
	p := e.openProxy(t, e.nodes[0]) // an empty cache, so it reads the root
	start := v.Now()
	done := make(chan error, 1)
	go func() { done <- p.Put(key(2), val(2)) }()
	var err error
	select {
	case err = <-done:
	case <-time.After(sinfonia.RetryBudget + time.Second):
		t.Fatalf("put still retrying after %v", sinfonia.RetryBudget+time.Second)
	}
	var gu *dyntx.GiveUpError
	if !errors.As(err, &gu) || !errors.Is(err, dyntx.ErrRetry) {
		t.Fatalf("want *dyntx.GiveUpError wrapping ErrRetry, got %v", err)
	}
	if gu.Stale+gu.Retry+gu.Aborted != gu.Attempts || gu.Retry != gu.Attempts {
		t.Fatalf("counts %+v do not add up to %d attempts", gu, gu.Attempts)
	}
	if el := v.Now().Sub(start); el < sinfonia.RetryBudget {
		t.Fatalf("gave up after %v, inside the %v budget", el, sinfonia.RetryBudget)
	}
	st := p.Stats()
	if st.Ops != 0 || st.Retries != int64(gu.Attempts-1) || st.Roundtrips < int64(gu.Attempts) {
		t.Fatalf("stats %+v after %d failed attempts", st, gu.Attempts)
	}
}

func TestMultiTreeTransaction(t *testing.T) {
	e := newEnv(t, 3, smallCfg())
	bt2, err := Create(e.c, e.al, 1, e.nodes[0], e.bt.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Atomically write to both trees.
	err = dyntx.Run(e.c, dyntx.RunOptions{}, func(t2 *dyntx.Txn) error {
		if err := e.bt.PutTxn(t2, key(1), []byte("a")); err != nil {
			return err
		}
		return bt2.PutTxn(t2, key(1), []byte("b"))
	})
	if err != nil {
		t.Fatal(err)
	}
	v1, ok1, _ := e.bt.Get(key(1))
	v2, ok2, _ := bt2.Get(key(1))
	if !ok1 || !ok2 || string(v1) != "a" || string(v2) != "b" {
		t.Fatalf("cross-tree txn: %q/%v %q/%v", v1, ok1, v2, ok2)
	}
}

// TestQuickNodeCodecRoundTrip: arbitrary node shapes survive the codec.
func TestQuickNodeCodecRoundTrip(t *testing.T) {
	f := func(tree uint16, height uint8, created, copied uint64, keys [][]byte, leaf bool) bool {
		if len(keys) > 64 {
			keys = keys[:64]
		}
		for i, k := range keys {
			if len(k) > 1024 {
				keys[i] = k[:1024]
			}
		}
		n := &Node{
			Tree:    tree,
			Created: created,
			Copied:  copied,
			Low:     wire.NegInf,
			High:    wire.PosInf,
		}
		if leaf {
			n.Height = 0
			for _, k := range keys {
				n.Keys = append(n.Keys, wire.Key(k))
				n.Vals = append(n.Vals, k)
			}
		} else {
			n.Height = height%200 + 1
			for _, k := range keys {
				n.Keys = append(n.Keys, wire.Key(k))
			}
			for i := 0; i <= len(keys); i++ {
				n.Kids = append(n.Kids, Ptr{Node: sinfonia.NodeID(i), Addr: sinfonia.Addr(i * 64)})
			}
		}
		got, err := decodeNode(n.encode())
		if err != nil {
			return false
		}
		if got.Tree != n.Tree || got.Height != n.Height || got.Created != n.Created ||
			got.Copied != n.Copied || len(got.Keys) != len(n.Keys) {
			return false
		}
		for i := range n.Keys {
			if string(got.Keys[i]) != string(n.Keys[i]) {
				return false
			}
		}
		if !leaf && len(got.Kids) != len(n.Kids) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodeNeverPanics: arbitrary bytes never panic the decoder.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = decodeNode(data)
		_, _ = DecodeHeader(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Including data that starts with the right magic byte.
	f2 := func(data []byte) bool {
		_, _ = decodeNode(append([]byte{nodeMagic}, data...))
		return true
	}
	if err := quick.Check(f2, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSplitNodeInvariants: splitting any node that is over-full by one
// (the single-key case of splitNodeMany) yields two halves that partition its
// keys exactly, with correct fences on both.
func TestQuickSplitNodeInvariants(t *testing.T) {
	f := func(nKeys uint8, leaf bool) bool {
		n := int(nKeys%32) + 2 // ≥2 keys so both halves are non-empty
		src := &Node{Low: wire.NegInf, High: wire.PosInf, Created: 5, Copied: NoSnap}
		if !leaf {
			src.Height = 1
		}
		for i := 0; i < n; i++ {
			k := wire.Key(fmt.Sprintf("k%04d", i))
			src.Keys = append(src.Keys, k)
			if leaf {
				src.Vals = append(src.Vals, []byte{byte(i)})
			}
		}
		if !leaf {
			for i := 0; i <= n; i++ {
				src.Kids = append(src.Kids, Ptr{Addr: sinfonia.Addr(i)})
			}
		}
		parts, seps := splitNodeMany(src, n-1)
		if len(parts) != 2 || len(seps) != 1 {
			return false
		}
		left, right, sep := parts[0], parts[1], seps[0]
		// Fences meet at the separator.
		if left.High.Compare(wire.FenceAt(sep)) != 0 || right.Low.Compare(wire.FenceAt(sep)) != 0 {
			return false
		}
		if left.Low.Compare(src.Low) != 0 || right.High.Compare(src.High) != 0 {
			return false
		}
		if leaf {
			// Leaf split: keys partition exactly; separator starts right.
			if len(left.Keys)+len(right.Keys) != n {
				return false
			}
			if string(right.Keys[0]) != string(sep) {
				return false
			}
			return len(left.Vals) == len(left.Keys) && len(right.Vals) == len(right.Keys)
		}
		// Interior split: separator moves up; kids partition.
		if len(left.Keys)+len(right.Keys) != n-1 {
			return false
		}
		if len(left.Kids) != len(left.Keys)+1 || len(right.Kids) != len(right.Keys)+1 {
			return false
		}
		return len(left.Kids)+len(right.Kids) == n+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
