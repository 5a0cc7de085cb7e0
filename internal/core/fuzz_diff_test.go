package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"

	"minuet/internal/dyntx"
	"minuet/internal/sinfonia"
	"minuet/internal/wire"
)

// Differential fuzz: randomized interleavings of batched writes, single-key
// writes, and version forks are checked op-by-op against per-version model
// maps, with the structural invariants (walkInvariants) asserted after every
// batch. The harness is deterministic per seed; to reproduce a failure, run
//
//	MINUET_FUZZ_SEED=<seed> MINUET_FUZZ_OPS=<ops> \
//	    go test ./internal/core -run TestDifferentialFuzz -v
//
// with the seed printed by the failing run.

// fuzzSeeds returns the seeds to fuzz: the override from MINUET_FUZZ_SEED,
// or a fixed set so CI runs are reproducible.
func fuzzSeeds(t *testing.T) []int64 {
	t.Helper()
	if s := os.Getenv("MINUET_FUZZ_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad MINUET_FUZZ_SEED %q: %v", s, err)
		}
		return []int64{v}
	}
	return []int64{1, 7}
}

// fuzzOps returns the per-seed operation budget (default 1200, at least 1k
// randomized operations per mode; MINUET_FUZZ_OPS overrides).
func fuzzOps(t *testing.T) int {
	t.Helper()
	if s := os.Getenv("MINUET_FUZZ_OPS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("bad MINUET_FUZZ_OPS %q: %v", s, err)
		}
		return v
	}
	return 1200
}

// sortedSids returns the model's version ids in order, so random choices
// driven by the seeded PRNG are identical run to run (map iteration order is
// not).
func sortedSids(models map[uint64]fuzzModel) []uint64 {
	sids := make([]uint64, 0, len(models))
	for sid := range models {
		sids = append(sids, sid)
	}
	sort.Slice(sids, func(a, b int) bool { return sids[a] < sids[b] })
	return sids
}

// fuzzModel is one version's reference state.
type fuzzModel map[string]string

func (m fuzzModel) clone() fuzzModel {
	c := make(fuzzModel, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// fuzzKey keeps the key space small enough that tiny-fanout trees split,
// delete, and regrow constantly.
func fuzzKey(rng *rand.Rand) wire.Key { return key(rng.Intn(250)) }

// randomBatch builds a mixed put/delete batch, duplicates included (the
// normalizer's last-wins rule is part of the contract under test), and
// applies it to the model.
func randomBatch(rng *rand.Rand, m fuzzModel, tag string) []BatchOp {
	n := 1 + rng.Intn(64)
	ops := make([]BatchOp, 0, n)
	for i := 0; i < n; i++ {
		k := fuzzKey(rng)
		if rng.Intn(5) == 0 {
			ops = append(ops, BatchOp{Key: k, Delete: true})
		} else {
			ops = append(ops, BatchOp{Key: k, Val: []byte(fmt.Sprintf("%s-%d", tag, i))})
		}
	}
	for _, op := range ops { // model applies in queue order = last wins
		if op.Delete {
			delete(m, string(op.Key))
		} else {
			m[string(op.Key)] = string(op.Val)
		}
	}
	return ops
}

// fuzzTxn runs one multi-op transaction through RunMulti — a tip Put, a tip
// Remove, a batch addressed to version sid (tipSid: BatchTxn), and a tip Get
// that must observe all three — and applies the same ops, in the same order,
// to the models (tip and target are the same map when sid is the tip). The
// single-key ops and the batch share leaves, parents and, on tiny-fanout
// trees, root growth inside one commit.
func fuzzTxn(t *testing.T, e *testEnv, rng *rand.Rand, tag string, tip, target fuzzModel, sid uint64) {
	t.Helper()
	pk, rk, gk := fuzzKey(rng), fuzzKey(rng), fuzzKey(rng)
	tip[string(pk)] = tag
	_, wantExisted := tip[string(rk)]
	delete(tip, string(rk))
	batch := randomBatch(rng, target, tag+"b")
	want, wantOK := tip[string(gk)]
	err := RunMulti(e.c, []*BTree{e.bt}, func(tx *dyntx.Txn) error {
		if err := e.bt.PutTxn(tx, pk, []byte(tag)); err != nil {
			return err
		}
		existed, err := e.bt.RemoveTxn(tx, rk)
		if err != nil {
			return err
		}
		if existed != wantExisted {
			return fmt.Errorf("RemoveTxn %q: existed=%v want %v", rk, existed, wantExisted)
		}
		if sid == tipSid {
			err = e.bt.BatchTxn(tx, batch)
		} else {
			err = e.bt.BatchTxnAt(tx, sid, batch)
		}
		if err != nil {
			return err
		}
		v, ok, err := e.bt.GetTxn(tx, gk)
		if err != nil {
			return err
		}
		if ok != wantOK || (ok && string(v) != want) {
			return fmt.Errorf("GetTxn %q: %q/%v want %q/%v", gk, v, ok, want, wantOK)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("txn %s (batch@%d): %v", tag, sid, err)
	}
}

// checkVersion compares a full scan of version sid against its model.
func checkVersion(t *testing.T, e *testEnv, sid uint64, m fuzzModel) {
	t.Helper()
	kvs, err := e.bt.ScanAt(sid, nil, len(m)+500)
	if err != nil {
		t.Fatalf("scan sid=%d: %v", sid, err)
	}
	if len(kvs) != len(m) {
		t.Fatalf("sid=%d scan %d keys, model %d", sid, len(kvs), len(m))
	}
	for _, kv := range kvs {
		if want, ok := m[string(kv.Key)]; !ok || want != string(kv.Val) {
			t.Fatalf("sid=%d key %q: tree %q, model %q (present=%v)", sid, kv.Key, kv.Val, want, ok)
		}
	}
}

// checkTip compares a full tip scan against the model (linear mode).
func checkTip(t *testing.T, e *testEnv, m fuzzModel) {
	t.Helper()
	kvs, err := e.bt.ScanTip(nil, len(m)+500)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(m) {
		t.Fatalf("tip scan %d keys, model %d", len(kvs), len(m))
	}
	for _, kv := range kvs {
		if want, ok := m[string(kv.Key)]; !ok || want != string(kv.Val) {
			t.Fatalf("tip key %q: tree %q, model %q (present=%v)", kv.Key, kv.Val, want, ok)
		}
	}
}

// TestDifferentialFuzzLinear interleaves WriteBatch, Put, Remove, Get,
// multi-op transactions, and snapshot creation on a linear tree, checking every read against the model,
// every frozen snapshot against its frozen model, and the structural
// invariants after every batch, which is followed by a GC pass.
func TestDifferentialFuzzLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("full fuzz budget; CI runs it as a dedicated -race step")
	}
	for _, seed := range fuzzSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			e := newEnv(t, 3, smallCfg())
			rng := rand.New(rand.NewSource(seed))
			model := fuzzModel{}
			snaps := map[uint64]fuzzModel{}
			snapHandles := map[uint64]Snapshot{}

			nops := fuzzOps(t)
			for i := 0; i < nops; i++ {
				switch r := rng.Intn(11); {
				case r < 3: // batch
					ops := randomBatch(rng, model, fmt.Sprintf("b%d", i))
					if err := e.bt.ApplyBatch(ops); err != nil {
						t.Fatalf("seed %d op %d batch: %v", seed, i, err)
					}
					sid, root := tipRoot(t, e)
					if got := walkInvariants(t, e, root, sid); got != len(model) {
						t.Fatalf("seed %d op %d: tip holds %d keys, model %d", seed, i, got, len(model))
					}
					// A GC pass between batches: the next ones descend past
					// freed blocks and write copies into recycled ones.
					// Snapshots below the new watermark leave the model.
					if _, err := e.bt.RunGCKeepRecent(2); err != nil {
						t.Fatalf("seed %d op %d GC: %v", seed, i, err)
					}
					low, err := e.bt.LowestSnapshot()
					if err != nil {
						t.Fatal(err)
					}
					for sid := range snaps {
						if sid < low {
							delete(snaps, sid)
							delete(snapHandles, sid)
						}
					}
				case r < 6: // single put
					k := fuzzKey(rng)
					v := fmt.Sprintf("p%d", i)
					if err := e.bt.Put(k, []byte(v)); err != nil {
						t.Fatalf("seed %d op %d put: %v", seed, i, err)
					}
					model[string(k)] = v
				case r < 8: // remove
					k := fuzzKey(rng)
					existed, err := e.bt.Remove(k)
					if err != nil {
						t.Fatalf("seed %d op %d remove: %v", seed, i, err)
					}
					if _, want := model[string(k)]; existed != want {
						t.Fatalf("seed %d op %d remove %q: existed=%v want %v", seed, i, k, existed, want)
					}
					delete(model, string(k))
				case r < 9: // get
					k := fuzzKey(rng)
					v, ok, err := e.bt.Get(k)
					if err != nil {
						t.Fatalf("seed %d op %d get: %v", seed, i, err)
					}
					want, wantOK := model[string(k)]
					if ok != wantOK || (ok && string(v) != want) {
						t.Fatalf("seed %d op %d get %q: %q/%v want %q/%v", seed, i, k, v, ok, want, wantOK)
					}
				case r < 10: // multi-op txn: single-key ops and a batch, one commit
					fuzzTxn(t, e, rng, fmt.Sprintf("t%d", i), model, model, tipSid)
					sid, root := tipRoot(t, e)
					if got := walkInvariants(t, e, root, sid); got != len(model) {
						t.Fatalf("seed %d op %d: tip holds %d keys after txn, model %d", seed, i, got, len(model))
					}
				default: // snapshot (bounded so walks stay cheap)
					if len(snaps) < 6 {
						snap, err := e.bt.CreateSnapshot()
						if err != nil {
							t.Fatalf("seed %d op %d snapshot: %v", seed, i, err)
						}
						snaps[snap.Sid] = model.clone()
						snapHandles[snap.Sid] = snap
					}
				}
			}
			checkTip(t, e, model)
			for sid, m := range snaps {
				s := snapHandles[sid]
				kvs, err := e.bt.ScanSnapshot(s, nil, len(m)+500)
				if err != nil {
					t.Fatalf("snapshot %d scan: %v", sid, err)
				}
				if len(kvs) != len(m) {
					t.Fatalf("snapshot %d has %d keys, model %d", sid, len(kvs), len(m))
				}
				for _, kv := range kvs {
					if m[string(kv.Key)] != string(kv.Val) {
						t.Fatalf("snapshot %d key %q drifted", sid, kv.Key)
					}
				}
			}
			checkStatsBytes(t, e)
		})
	}
}

// checkStatsBytes compares the byte count each memnode maintains write by
// write (StatsResp.Bytes) with a full walk of its items.
func checkStatsBytes(t *testing.T, e *testEnv) {
	t.Helper()
	for _, n := range e.nodes {
		st, err := e.c.Stats(n)
		if err != nil {
			t.Fatal(err)
		}
		items, err := e.c.Scan(n, 0, ^sinfonia.Addr(0), math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		var walk int64
		for _, it := range items {
			walk += int64(len(it.Prefix))
		}
		if st.Bytes != walk || st.Items != len(items) {
			t.Fatalf("memnode %d reports %d items / %d bytes, a scan finds %d / %d", n, st.Items, st.Bytes, len(items), walk)
		}
	}
}

// TestDifferentialFuzzBranching interleaves WriteBatchAt, the mainline
// WriteBatch, PutAt, RemoveAt, GetAt, multi-op transactions (tip single-key
// ops plus a batch addressed to any writable version), and branch forks on a
// branching tree
// (β=2), checking every operation against per-version model maps and the
// structural invariants of the touched version after every batch. Frozen
// versions are re-verified at the end: copy-on-write must never let a batch
// bleed into an ancestor or sibling.
func TestDifferentialFuzzBranching(t *testing.T) {
	if testing.Short() {
		t.Skip("full fuzz budget; CI runs it as a dedicated -race step")
	}
	for _, seed := range fuzzSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			e := newEnv(t, 3, branchCfg(2))
			rng := rand.New(rand.NewSource(seed))
			models := map[uint64]fuzzModel{1: {}}
			children := map[uint64]int{}
			writable := []uint64{1}

			pickWritable := func() uint64 { return writable[rng.Intn(len(writable))] }
			mainline := func() uint64 {
				sid := uint64(1)
				for {
					e, err := e.bt.cat.Refresh(sid)
					if err != nil {
						t.Fatalf("catalog refresh %d: %v", sid, err)
					}
					if e.Writable() {
						return sid
					}
					sid = e.BranchID
				}
			}

			nops := fuzzOps(t)
			for i := 0; i < nops; i++ {
				switch r := rng.Intn(13); {
				case r < 3: // version-addressed batch
					sid := pickWritable()
					ops := randomBatch(rng, models[sid], fmt.Sprintf("b%d", i))
					if err := e.bt.ApplyBatchAt(sid, ops); err != nil {
						t.Fatalf("seed %d op %d batch@%d: %v", seed, i, sid, err)
					}
					if got := walkInvariants(t, e, versionRoot(t, e, sid), sid); got != len(models[sid]) {
						t.Fatalf("seed %d op %d: sid %d holds %d keys, model %d", seed, i, sid, got, len(models[sid]))
					}
					// The GC pass between batches: a branching tree refuses
					// it, untouched, until GC learns the version tree
					// (docs/ARCHITECTURE.md, "Why GC is linear-only").
					if _, err := e.bt.CollectGarbage(); err == nil {
						t.Fatalf("seed %d op %d: GC ran on a branching tree", seed, i)
					}
				case r < 4: // mainline batch (un-addressed WriteBatch path)
					sid := mainline()
					ops := randomBatch(rng, models[sid], fmt.Sprintf("m%d", i))
					if err := e.bt.ApplyBatch(ops); err != nil {
						t.Fatalf("seed %d op %d mainline batch: %v", seed, i, err)
					}
					if got := walkInvariants(t, e, versionRoot(t, e, sid), sid); got != len(models[sid]) {
						t.Fatalf("seed %d op %d: mainline %d holds %d keys, model %d", seed, i, sid, got, len(models[sid]))
					}
				case r < 7: // single put
					sid := pickWritable()
					k := fuzzKey(rng)
					v := fmt.Sprintf("p%d", i)
					if err := e.bt.PutAt(sid, k, []byte(v)); err != nil {
						t.Fatalf("seed %d op %d put@%d: %v", seed, i, sid, err)
					}
					models[sid][string(k)] = v
				case r < 9: // remove
					sid := pickWritable()
					k := fuzzKey(rng)
					existed, err := e.bt.RemoveAt(sid, k)
					if err != nil {
						t.Fatalf("seed %d op %d remove@%d: %v", seed, i, sid, err)
					}
					if _, want := models[sid][string(k)]; existed != want {
						t.Fatalf("seed %d op %d remove@%d %q: existed=%v want %v", seed, i, sid, k, existed, want)
					}
					delete(models[sid], string(k))
				case r < 11: // get, on any version including frozen ones
					sids := sortedSids(models)
					sid := sids[rng.Intn(len(sids))]
					k := fuzzKey(rng)
					v, ok, err := e.bt.GetAt(sid, k)
					if err != nil {
						t.Fatalf("seed %d op %d get@%d: %v", seed, i, sid, err)
					}
					want, wantOK := models[sid][string(k)]
					if ok != wantOK || (ok && string(v) != want) {
						t.Fatalf("seed %d op %d get@%d %q: %q/%v want %q/%v", seed, i, sid, k, v, ok, want, wantOK)
					}
				case r < 12: // multi-op txn: mainline single-key ops + an addressed batch
					tip, sid := mainline(), pickWritable()
					fuzzTxn(t, e, rng, fmt.Sprintf("t%d", i), models[tip], models[sid], sid)
					for _, v := range []uint64{tip, sid} {
						if got := walkInvariants(t, e, versionRoot(t, e, v), v); got != len(models[v]) {
							t.Fatalf("seed %d op %d: sid %d holds %d keys after txn, model %d", seed, i, v, got, len(models[v]))
						}
					}
				default: // fork (bounded version count; respect β)
					if len(models) >= 10 {
						continue
					}
					var sids []uint64
					for _, sid := range sortedSids(models) {
						if children[sid] < 2 {
							sids = append(sids, sid)
						}
					}
					if len(sids) == 0 {
						continue
					}
					from := sids[rng.Intn(len(sids))]
					br, err := e.bt.CreateBranch(from)
					if err != nil {
						t.Fatalf("seed %d op %d branch from %d: %v", seed, i, from, err)
					}
					children[from]++
					models[br.Sid] = models[from].clone()
					// The first branch freezes `from`.
					next := writable[:0]
					for _, w := range writable {
						if w != from {
							next = append(next, w)
						}
					}
					writable = append(next, br.Sid)
				}
			}
			// Final differential sweep: every version — writable tips and
			// frozen interior vertices alike — must match its model exactly,
			// and satisfy the structural invariants.
			for _, sid := range sortedSids(models) {
				m := models[sid]
				checkVersion(t, e, sid, m)
				if got := walkInvariants(t, e, versionRoot(t, e, sid), sid); got != len(m) {
					t.Fatalf("seed %d: sid %d holds %d keys, model %d", seed, sid, got, len(m))
				}
			}
			checkStatsBytes(t, e)
		})
	}
}
