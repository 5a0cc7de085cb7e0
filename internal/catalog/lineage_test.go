package catalog

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
)

// versionTree is a test's record of the version tree it wrote through
// writeEntry: the stored Parent and Depth of every version, and the
// entries as last written.
type versionTree struct {
	t        testing.TB
	c        *sinfonia.Client
	entries  map[uint64]Entry
	sids     []uint64 // in creation order
	mainline []uint64 // the first-branch chain from the root
}

func newVersionTree(t *testing.T, c *sinfonia.Client) *versionTree {
	vt := &versionTree{t: t, c: c, entries: make(map[uint64]Entry)}
	vt.add(0)
	vt.mainline = []uint64{1}
	return vt
}

// add creates a child of parent (0: the root version) with the next sid and
// records it in the parent's mutable fields, as CreateBranch does.
func (vt *versionTree) add(parent uint64) uint64 {
	sid := uint64(len(vt.sids) + 1)
	e := Entry{Sid: sid, Parent: parent}
	if parent != 0 {
		pe := vt.entries[parent]
		e.Depth = pe.Depth + 1
		if pe.BranchID == 0 {
			pe.BranchID = sid
		}
		pe.NumChildren++
		vt.entries[parent] = pe
		writeEntry(vt.t, vt.c, 0, pe)
	}
	vt.entries[sid] = e
	writeEntry(vt.t, vt.c, 0, e)
	vt.sids = append(vt.sids, sid)
	return sid
}

// fork extends the mainline by one version and gives the old tip a second
// child, a what-if clone, the way the htap_branch workload forks.
func (vt *versionTree) fork() (tip, clone uint64) {
	parent := vt.mainline[len(vt.mainline)-1]
	tip = vt.add(parent)
	clone = vt.add(parent)
	vt.mainline = append(vt.mainline, tip)
	return tip, clone
}

// path returns sid and its ancestors, walking the stored Parent fields.
func (vt *versionTree) path(sid uint64) []uint64 {
	var out []uint64
	for ; sid != 0; sid = vt.entries[sid].Parent {
		out = append(out, sid)
	}
	return out
}

func (vt *versionTree) isAncestorOrSelf(a, b uint64) bool {
	for _, s := range vt.path(b) {
		if s == a {
			return true
		}
	}
	return false
}

func (vt *versionTree) lca(a, b uint64) uint64 {
	for _, s := range vt.path(a) {
		if vt.isAncestorOrSelf(s, b) {
			return s
		}
	}
	return 0
}

// childToward returns the child of a on the path to d; 0 if d is not a
// strict descendant of a.
func (vt *versionTree) childToward(a, d uint64) uint64 {
	p := vt.path(d)
	for i := 1; i < len(p); i++ {
		if p[i] == a {
			return p[i-1]
		}
	}
	return 0
}

// TestLineageMatchesParentWalk builds random version trees (branching up
// to β = 4, beside a 320-deep mainline that forks a clone at every step)
// and checks every ancestry answer against a walk of the stored Parent
// fields, while entries on the queried paths are invalidated, refreshed
// and rewritten.
func TestLineageMatchesParentWalk(t *testing.T) {
	const beta, mainline, extra, queries = 4, 320, 200, 3000
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, cat := newEnv(t)
			vt := newVersionTree(t, c)
			for i := 0; i < mainline; i++ {
				vt.fork()
			}
			for i := 0; i < extra; i++ {
				for {
					p := vt.sids[rng.Intn(len(vt.sids))]
					if vt.entries[p].NumChildren < beta {
						vt.add(p)
						break
					}
				}
			}
			pick := func() uint64 {
				if rng.Intn(3) == 0 { // bias toward the deep chain
					return vt.mainline[rng.Intn(len(vt.mainline))]
				}
				return vt.sids[rng.Intn(len(vt.sids))]
			}
			for q := 0; q < queries; q++ {
				a, b := pick(), pick()
				if rng.Intn(4) == 0 { // make a an ancestor of b
					p := vt.path(b)
					a = p[rng.Intn(len(p))]
				}
				if rng.Intn(8) == 0 {
					p := vt.path(b)
					x := p[rng.Intn(len(p))]
					switch rng.Intn(3) {
					case 0:
						cat.Invalidate(x)
					case 1:
						if _, err := cat.Refresh(x); err != nil {
							t.Fatal(err)
						}
					default: // a new child changes x's mutable fields behind the cache
						if vt.entries[x].NumChildren < beta {
							vt.add(x)
						}
					}
				}

				got, err := cat.IsAncestorOrSelf(a, b)
				if want := vt.isAncestorOrSelf(a, b); err != nil || got != want {
					t.Fatalf("IsAncestorOrSelf(%d, %d) = %v, %v; the parent walk says %v", a, b, got, err, want)
				}
				lca, err := cat.LCA(a, b)
				if want := vt.lca(a, b); err != nil || lca != want {
					t.Fatalf("LCA(%d, %d) = %d, %v; the parent walk says %d", a, b, lca, err, want)
				}
				child, err := cat.ChildToward(a, b)
				if want := vt.childToward(a, b); (want == 0) != (err != nil) || child != want {
					t.Fatalf("ChildToward(%d, %d) = %d, %v; the parent walk says %d", a, b, child, err, want)
				}
				d, err := cat.Depth(b)
				if want := vt.entries[b].Depth; err != nil || d != want || int(d) != len(vt.path(b))-1 {
					t.Fatalf("Depth(%d) = %d, %v; stored %d, path length %d", b, d, err, want, len(vt.path(b)))
				}
			}
		})
	}
}

// TestWarmAncestryMakesNoRoundTrips: once a version's lineage is built, an
// ancestry question about it costs no round trip at any depth, even after
// the entries on its path are invalidated.
func TestWarmAncestryMakesNoRoundTrips(t *testing.T) {
	c, cat := newEnv(t)
	tr := c.Transport().(*netsim.Local)
	vt := newVersionTree(t, c)
	var clone uint64
	for i := 0; i < 300; i++ {
		_, clone = vt.fork()
	}
	root, tip := vt.mainline[0], vt.mainline[len(vt.mainline)-1]
	mid := vt.mainline[150]
	if d, err := cat.Depth(tip); err != nil || d != 300 {
		t.Fatalf("Depth(tip) = %d, %v; want 300", d, err)
	}
	if _, err := cat.Depth(clone); err != nil {
		t.Fatal(err)
	}
	for _, sid := range []uint64{mid, tip, clone} {
		cat.Invalidate(sid)
	}

	before := tr.Stats().Calls
	if ok, err := cat.IsAncestorOrSelf(root, tip); err != nil || !ok {
		t.Fatalf("IsAncestorOrSelf(root, tip) = %v, %v", ok, err)
	}
	if ok, err := cat.IsAncestorOrSelf(mid, clone); err != nil || !ok {
		t.Fatalf("IsAncestorOrSelf(mid, clone) = %v, %v", ok, err)
	}
	if ok, err := cat.IsAncestorOrSelf(clone, tip); err != nil || ok {
		t.Fatalf("IsAncestorOrSelf(clone, tip) = %v, %v", ok, err)
	}
	if a, err := cat.LCA(tip, clone); err != nil || a != vt.mainline[299] {
		t.Fatalf("LCA(tip, clone) = %d, %v; want %d", a, err, vt.mainline[299])
	}
	if ch, err := cat.ChildToward(root, tip); err != nil || ch != vt.mainline[1] {
		t.Fatalf("ChildToward(root, tip) = %d, %v; want %d", ch, err, vt.mainline[1])
	}
	if calls := tr.Stats().Calls - before; calls != 0 {
		t.Fatalf("warmed ancestry questions at depth 300 made %d round trips; want 0", calls)
	}
}

// TestLineageRejectsInconsistentDepth: a catalog entry whose Depth does
// not fit its parent's is an error, not a lineage that answers wrongly.
func TestLineageRejectsInconsistentDepth(t *testing.T) {
	c, cat := newEnv(t)
	for _, e := range []Entry{
		{Sid: 1},
		{Sid: 2, Parent: 1, Depth: 1},
		{Sid: 3, Parent: 2, Depth: 5}, // one below a built parent
		{Sid: 4, Parent: 1, Depth: 1},
		{Sid: 5, Parent: 4, Depth: 3}, // inside a chain being built
		{Sid: 6, Depth: 2},            // a root below depth 0
	} {
		writeEntry(t, c, 0, e)
	}
	if ok, err := cat.IsAncestorOrSelf(1, 2); err != nil || !ok {
		t.Fatalf("IsAncestorOrSelf(1, 2) = %v, %v", ok, err)
	}
	for _, sid := range []uint64{3, 5, 6} {
		if _, err := cat.IsAncestorOrSelf(1, sid); err == nil {
			t.Errorf("IsAncestorOrSelf(1, %d) accepted an inconsistent depth", sid)
		}
	}
}

// TestConcurrentLineageBuilds: readers ask ancestry questions about random
// versions, some not yet cached, while a writer appends versions. Every
// answer matches the parent walk, and however many goroutines built a
// version's lineage, one value is stored and every child points at it.
func TestConcurrentLineageBuilds(t *testing.T) {
	const readers, rounds, queries = 8, 60, 300
	c, cat := newEnv(t)
	vt := newVersionTree(t, c)
	for i := 0; i < 40; i++ {
		vt.fork()
	}

	// The writer publishes each new version's parents only after its entry
	// is stored, so readers ask about versions that exist.
	var mu sync.Mutex
	parents := make(map[uint64]uint64)
	known := append([]uint64(nil), vt.sids...)
	for sid, e := range vt.entries {
		parents[sid] = e.Parent
	}
	pick := func(rng *rand.Rand) (a, b uint64, want bool) {
		mu.Lock()
		defer mu.Unlock()
		a, b = known[rng.Intn(len(known))], known[rng.Intn(len(known))]
		for s := b; s != 0; s = parents[s] {
			if s == a {
				return a, b, true
			}
		}
		return a, b, false
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for q := 0; q < queries; q++ {
				a, b, want := pick(rng)
				got, err := cat.IsAncestorOrSelf(a, b)
				if err != nil || got != want {
					errs <- fmt.Errorf("IsAncestorOrSelf(%d, %d) = %v, %v; want %v", a, b, got, err, want)
					return
				}
			}
		}(g)
	}
	for i := 0; i < rounds; i++ { // the writer
		tip, clone := vt.fork()
		mu.Lock()
		parents[tip], parents[clone] = vt.entries[tip].Parent, vt.entries[clone].Parent
		known = append(known, tip, clone)
		mu.Unlock()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A fresh stretch of mainline that every reader builds at once.
	for i := 0; i < 50; i++ {
		vt.fork()
	}
	tip := vt.mainline[len(vt.mainline)-1]
	got := make([]*lineage, readers)
	start := make(chan struct{})
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g], _ = cat.lineage(tip)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if got[g] == nil || got[g] != got[0] {
			t.Fatalf("concurrent builds of %d returned different lineages: %p, %p", tip, got[0], got[g])
		}
	}

	for _, sid := range vt.sids {
		l, err := cat.lineage(sid)
		if err != nil {
			t.Fatal(err)
		}
		if p := vt.entries[sid].Parent; p != 0 {
			pl, _ := cat.lineages.Load(p)
			if l.up[0] != pl.(*lineage) {
				t.Fatalf("lineage(%d) points at a parent lineage that is not the stored one", sid)
			}
		}
	}
}

// BenchmarkIsAncestorOrSelf asks whether the root is an ancestor of a
// warmed version at each depth of a single chain.
func BenchmarkIsAncestorOrSelf(b *testing.B) {
	c, cat := newEnv(b)
	const maxDepth = 1024
	sids := make([]uint64, maxDepth+1)
	for d := range sids {
		e := Entry{Sid: uint64(d + 1), Depth: uint32(d)}
		if d > 0 {
			e.Parent = sids[d-1]
		}
		writeEntry(b, c, 0, e)
		sids[d] = e.Sid
	}
	for _, depth := range []int{1, 16, 128, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			if ok, err := cat.IsAncestorOrSelf(sids[0], sids[depth]); err != nil || !ok {
				b.Fatalf("IsAncestorOrSelf = %v, %v", ok, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ok, _ := cat.IsAncestorOrSelf(sids[0], sids[depth]); !ok {
					b.Fatal("not an ancestor")
				}
			}
		})
	}
}
