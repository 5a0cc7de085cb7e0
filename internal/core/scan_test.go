package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"minuet/internal/dyntx"
	"minuet/internal/wire"
)

// scanModel is the expected content of one version: pairs in key order.
type scanModel []KV

// modelOf orders a version's pairs, given as key → value.
func modelOf(m map[string]string) scanModel {
	out := make(scanModel, 0, len(m))
	for k, v := range m {
		out = append(out, KV{Key: wire.Key(k), Val: []byte(v)})
	}
	sort.Slice(out, func(i, j int) bool { return wire.CompareKeys(out[i].Key, out[j].Key) < 0 })
	return out
}

// from returns up to limit pairs of the model with key ≥ start.
func (m scanModel) from(start wire.Key, limit int) scanModel {
	i := sort.Search(len(m), func(i int) bool { return wire.CompareKeys(m[i].Key, start) >= 0 })
	return m[i:min(len(m), i+limit)]
}

// samePairs reports how got differs from want; "" when it does not.
func samePairs(got []KV, want scanModel) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if string(got[i].Key) != string(want[i].Key) || string(got[i].Val) != string(want[i].Val) {
			return fmt.Sprintf("pair %d is %q=%q, want %q=%q", i, got[i].Key, got[i].Val, want[i].Key, want[i].Val)
		}
	}
	return ""
}

// cursorPairs reads up to limit pairs from start with a Cursor.
func cursorPairs(bt *BTree, s Snapshot, start wire.Key, limit int) ([]KV, error) {
	var out []KV
	c := bt.NewCursor(s, start)
	err := c.Each(func(k wire.Key, v []byte) bool {
		out = append(out, KV{Key: k, Val: v})
		return len(out) < limit
	})
	return out, err
}

// roundtripsOf returns the round trips bt's transactions issue during fn.
func roundtripsOf(bt *BTree, fn func()) int64 {
	before := bt.Stats().Roundtrips
	fn()
	return bt.Stats().Roundtrips - before
}

// TestSnapshotScanGroupsLeafFetches: a scan of a frozen version fetches the
// leaves it needs in runs of siblings, one grouped read each, so a 1000-key
// scan over 4 KiB nodes costs a few round trips where a walk of one leaf per
// round trip costs about sixteen. A scan, a Cursor (one leaf per step) and,
// on a branching tree, ScanAt of the same version return the same pairs.
func TestSnapshotScanGroupsLeafFetches(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-key preload; the race job runs -short")
	}
	for _, branching := range []bool{false, true} {
		t.Run(fmt.Sprintf("branching=%v", branching), func(t *testing.T) {
			e := newEnv(t, 2, Config{NodeSize: 4096, DirtyTraversals: true, Branching: branching})
			const n = 10_000
			m := make(map[string]string, n)
			for i := 0; i < n; i++ {
				mustPut(t, e.bt, i)
				m[string(key(i))] = string(val(i))
			}
			var snap Snapshot
			if branching {
				if _, err := e.bt.CreateBranch(initialSnapID); err != nil {
					t.Fatal(err)
				}
				snap = Snapshot{Sid: initialSnapID, Root: versionRoot(t, e, initialSnapID)}
			} else {
				var err error
				if snap, err = e.bt.CreateSnapshot(); err != nil {
					t.Fatal(err)
				}
			}
			model := modelOf(m)
			if _, err := e.bt.ScanSnapshot(snap, nil, n); err != nil { // warm the interior-node cache
				t.Fatal(err)
			}

			const limit = 1000
			for _, start := range []wire.Key{nil, key(4321), key(n - 700)} {
				var got []KV
				var err error
				rts := roundtripsOf(e.bt, func() { got, err = e.bt.ScanSnapshot(snap, start, limit) })
				if err != nil {
					t.Fatal(err)
				}
				want := model.from(start, limit)
				if d := samePairs(got, want); d != "" {
					t.Fatalf("ScanSnapshot from %q: %s", start, d)
				}
				if rts > 4 {
					t.Errorf("a %d-key ScanSnapshot from %q cost %d round trips, want ≤ 4", len(got), start, rts)
				}
				var curRts int64
				curRts = roundtripsOf(e.bt, func() { got, err = cursorPairs(e.bt, snap, start, limit) })
				if err != nil {
					t.Fatal(err)
				}
				if d := samePairs(got, want); d != "" {
					t.Fatalf("Cursor from %q: %s", start, d)
				}
				t.Logf("from %q: ScanSnapshot %d round trips, Cursor %d", start, rts, curRts)
				if branching {
					if got, err = e.bt.ScanAt(snap.Sid, start, limit); err != nil {
						t.Fatal(err)
					}
					if d := samePairs(got, want); d != "" {
						t.Fatalf("ScanAt from %q: %s", start, d)
					}
				}
			}
		})
	}
}

// TestSnapshotScanRunCutFallsBack: a scanning proxy whose cached parent is
// stale fetches a run that names what the version no longer holds there. Each
// case fails a different check of the run's second leaf: a leaf copied to the
// tip before the snapshot (version), that leaf's block since overwritten with
// an image that is not a node, as a freed and reused block would be (parse),
// and a first leaf split in place, so the second no longer follows it
// (fences). The run is cut there, the walk falls back to a descent, which
// retries past the stale parent, and the scan returns exactly the version's
// pairs.
func TestSnapshotScanRunCutFallsBack(t *testing.T) {
	for _, cut := range []string{"copied", "reused", "split"} {
		t.Run(cut, func(t *testing.T) {
			cfg := Config{NodeSize: 1024, MaxLeafKeys: 8, MaxInnerKeys: 8, DirtyTraversals: true}
			e := newEnv(t, 2, cfg)
			const n = 200
			m := make(map[string]string, n)
			put := func(k wire.Key, v string) {
				t.Helper()
				if err := e.bt.Put(k, []byte(v)); err != nil {
					t.Fatal(err)
				}
				m[string(k)] = v
			}
			for i := 0; i < n; i++ {
				put(key(i), string(val(i)))
			}
			if _, err := e.bt.CreateSnapshot(); err != nil {
				t.Fatal(err)
			}
			// Copy the leftmost leaf to the tip, and with it the path above
			// it, so the tip's leftmost parent is a node of the tip's own,
			// and let the scanner cache that parent.
			put(key(0), "tip")
			scanner := e.openProxy(t, e.nodes[1])
			if _, _, err := scanner.Get(key(0)); err != nil {
				t.Fatal(err)
			}
			var parent *nodeView
			err := e.bt.run(func(tx *dyntx.Txn) error {
				tg, err := e.bt.resolve(tx, tipSid)
				if err != nil {
					return err
				}
				var buf pathBuf
				path, err := e.bt.descend(tx, &tg, key(0), 1, &buf)
				if err == nil {
					parent = path[len(path)-1].view
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if parent.len() < 2 {
				t.Fatalf("leftmost parent has %d children, want ≥ 3", parent.len()+1)
			}
			// The parent's second child still belongs to the older snapshot.
			// Either edit rewrites the parent in place, leaving the scanner's
			// cached image stale.
			second := parent.kid(1)
			if cut == "split" {
				for j := 0; j < cfg.MaxLeafKeys; j++ {
					put(wire.Key(fmt.Sprintf("%s-%d", key(0), j)), "split")
				}
			} else {
				put(parent.key(0), "copied") // the second child's first key
			}
			snap, err := e.bt.CreateSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if cut == "reused" {
				if err := e.c.Write(second, []byte("not a node")); err != nil {
					t.Fatal(err)
				}
			}

			retries := scanner.Stats().Retries
			got, err := scanner.ScanSnapshot(snap, nil, 2*n)
			if err != nil {
				t.Fatal(err)
			}
			if d := samePairs(got, modelOf(m)); d != "" {
				t.Fatalf("scan through a stale parent: %s", d)
			}
			if scanner.Stats().Retries == retries {
				t.Fatal("the stale parent cost no retry: the scan never met it")
			}
			if got, err = cursorPairs(scanner, snap, nil, 2*n); err != nil {
				t.Fatal(err)
			}
			if d := samePairs(got, modelOf(m)); d != "" {
				t.Fatalf("Cursor: %s", d)
			}
		})
	}
}

// TestSnapshotScanBesideCopiesAndGC scans a frozen snapshot from one proxy,
// at random starts and lengths, while another proxy copies the snapshot's
// leaves to the tip, splits tip leaves and runs the collector, which frees the
// blocks of an older snapshot for the writes to reuse. Every scan returns
// exactly the snapshot's pairs.
func TestSnapshotScanBesideCopiesAndGC(t *testing.T) {
	cfg := Config{NodeSize: 1024, MaxLeafKeys: 8, MaxInnerKeys: 8, DirtyTraversals: true}
	e := newEnv(t, 2, cfg)
	const n = 600
	for i := 0; i < n; i += 2 {
		mustPut(t, e.bt, i)
	}
	scanner := e.openProxy(t, e.nodes[1])
	old, err := e.bt.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scanner.ScanSnapshot(old, nil, n); err != nil { // caches the old snapshot's nodes
		t.Fatal(err)
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i += 2 {
		v := fmt.Sprintf("s%d", i)
		if err := e.bt.Put(key(i), []byte(v)); err != nil {
			t.Fatal(err)
		}
		m[string(key(i))] = v
	}
	snap, err := e.bt.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	model := modelOf(m)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rounds, freed atomic.Int64
	wg.Add(1)
	go func() { // the writer: copies, splits, collection
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := 0; j < 20; j++ {
				if err := e.bt.Put(key(rng.Intn(n)), []byte(fmt.Sprintf("w%d", round))); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
			if round%5 == 0 {
				f, err := e.bt.RunGCKeepRecent(1)
				if err != nil {
					t.Errorf("collector: %v", err)
					return
				}
				freed.Add(int64(f))
			}
			rounds.Add(1)
		}
	}()

	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 60 || rounds.Load() < 20; round++ {
		start := key(rng.Intn(n))
		limit := 1 + rng.Intn(n/2)
		got, err := scanner.ScanSnapshot(snap, start, limit)
		if err != nil {
			t.Fatal(err)
		}
		if d := samePairs(got, model.from(start, limit)); d != "" {
			t.Fatalf("round %d: scan from %q limit %d: %s", round, start, limit, d)
		}
	}
	close(stop)
	wg.Wait()
	if freed.Load() == 0 {
		t.Fatal("the collector freed no block for the writer to reuse")
	}
}

// TestFrozenParentScanChasesRedirects builds versions as the branching
// benchmark does — forks of a mainline and a what-if clone, with writes to
// both — and scans the newest frozen parent, whose parents point at leaves
// that redirect to its own copies. The scan returns the version's pairs and
// costs fewer round trips than a walk of one leaf per round trip.
func TestFrozenParentScanChasesRedirects(t *testing.T) {
	cfg := Config{NodeSize: 1024, MaxLeafKeys: 8, MaxInnerKeys: 8, DirtyTraversals: true, Branching: true, Beta: 2}
	e := newEnv(t, 2, cfg)
	const n = 400
	tip := make(map[string]string, n)
	for i := 0; i < n; i++ {
		mustPut(t, e.bt, i)
		tip[string(key(i))] = string(val(i))
	}
	rng := rand.New(rand.NewSource(3))
	mainline := uint64(initialSnapID)
	var frozen uint64
	var model scanModel
	for f := 0; f < 6; f++ {
		for j := 0; j < 40; j++ {
			i := rng.Intn(n)
			v := fmt.Sprintf("m%d-%d", f, j)
			if err := e.bt.PutAt(mainline, key(i), []byte(v)); err != nil {
				t.Fatal(err)
			}
			tip[string(key(i))] = v
		}
		cont, err := e.bt.CreateBranch(mainline)
		if err != nil {
			t.Fatal(err)
		}
		clone, err := e.bt.CreateBranch(mainline)
		if err != nil {
			t.Fatal(err)
		}
		frozen, model = mainline, modelOf(tip)
		mainline = cont.Sid
		for j := 0; j < 40; j++ {
			if err := e.bt.PutAt(clone.Sid, key(rng.Intn(n)), []byte("clone")); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := Snapshot{Sid: frozen, Root: versionRoot(t, e, frozen)}
	tg := snapTarget(snap)

	// Count the leaves the version reaches only through a redirect.
	seen := make(map[Ptr]bool)
	redirected := 0
	for _, kv := range model {
		err := e.bt.run(func(tx *dyntx.Txn) error {
			var buf pathBuf
			path, err := e.bt.descend(tx, &tg, kv.Key, 1, &buf)
			if err != nil {
				return err
			}
			parent := path[len(path)-1].view
			p := parent.kid(parent.childIndex(kv.Key))
			if seen[p] {
				return nil
			}
			seen[p] = true
			leaf, _, err := e.bt.loadNode(tx, p, loadDirty)
			if err != nil {
				return err
			}
			if _, ok, err := e.bt.bestRedirect(leaf, &tg); err != nil || ok {
				redirected++
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if redirected == 0 {
		t.Fatal("no leaf of the frozen version is reached through a redirect")
	}

	// Every leaf the walk consumes is the version's own: none redirects on.
	w := e.bt.newLeafWalk(nil, tg, nil)
	for !w.last {
		if err := w.step(n, wire.PosInf); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := e.bt.bestRedirect(w.leaf, &tg); err != nil || ok {
			t.Fatalf("the walk consumed a leaf at %v that redirects toward version %d (%v)", w.leaf.Low, frozen, err)
		}
	}

	var got []KV
	var err error
	scanRts := roundtripsOf(e.bt, func() { got, err = e.bt.ScanSnapshot(snap, nil, n) })
	if err != nil {
		t.Fatal(err)
	}
	if d := samePairs(got, model); d != "" {
		t.Fatalf("ScanSnapshot: %s", d)
	}
	curRts := roundtripsOf(e.bt, func() { got, err = cursorPairs(e.bt, snap, nil, n) })
	if err != nil {
		t.Fatal(err)
	}
	if d := samePairs(got, model); d != "" {
		t.Fatalf("Cursor: %s", d)
	}
	if got, err = e.bt.ScanAt(frozen, nil, n); err != nil {
		t.Fatal(err)
	}
	if d := samePairs(got, model); d != "" {
		t.Fatalf("ScanAt: %s", d)
	}
	t.Logf("%d leaves reached through a redirect; ScanSnapshot %d round trips, Cursor %d", redirected, scanRts, curRts)
	if scanRts >= curRts {
		t.Fatalf("ScanSnapshot cost %d round trips, a leaf-per-step Cursor %d", scanRts, curRts)
	}
}
