package catalog

import (
	"testing"
	"testing/quick"

	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
	"minuet/internal/space"
)

func newEnv(t testing.TB) (*sinfonia.Client, *Catalog) {
	t.Helper()
	tr := netsim.NewLocal(0)
	nodes := []sinfonia.NodeID{0, 1}
	for _, n := range nodes {
		tr.Bind(n, sinfonia.NewMemnode(n))
	}
	c := sinfonia.NewClient(tr, nodes)
	return c, New(c, 0, 0)
}

// writeEntry stores an entry on every memnode (as branch creation would).
func writeEntry(t testing.TB, c *sinfonia.Client, treeIdx int, e Entry) {
	t.Helper()
	m := &sinfonia.Minitx{}
	for _, n := range c.Nodes() {
		m.Writes = append(m.Writes, sinfonia.WriteItem{
			Node: n, Addr: space.CatalogAddr(treeIdx, e.Sid), Data: Encode(e),
		})
	}
	if _, err := c.Exec(m); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := Entry{
		Sid:         42,
		Root:        sinfonia.Ptr{Node: 3, Addr: 0xABCD},
		Parent:      17,
		BranchID:    43,
		NumChildren: 2,
		Depth:       9,
	}
	got, err := Decode(Encode(e))
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip: %+v != %+v", got, e)
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	f := func(sid, parent, branch uint64, node int32, addr uint64, nc uint8, depth uint32) bool {
		e := Entry{
			Sid: sid, Parent: parent, BranchID: branch,
			Root:        sinfonia.Ptr{Node: sinfonia.NodeID(node), Addr: sinfonia.Addr(addr)},
			NumChildren: nc, Depth: depth,
		}
		got, err := Decode(Encode(e))
		return err == nil && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("nonsense")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil decoded")
	}
}

// buildTree writes the version tree of the paper's Fig 8:
//
//	1 ── 2 ── 4 ── 6 ── 9
//	│    └─ 5 ── 7
//	│         └─ 8 ── 10
//	└─ 3
//
// (Parent edges only; branch ids are irrelevant for ancestry.)
func buildTree(t *testing.T, c *sinfonia.Client) {
	t.Helper()
	parents := map[uint64]uint64{1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 4, 7: 5, 8: 5, 9: 6, 10: 8}
	depth := map[uint64]uint32{1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3, 8: 3, 9: 4, 10: 4}
	for sid, p := range parents {
		writeEntry(t, c, 0, Entry{Sid: sid, Parent: p, Depth: depth[sid]})
	}
}

func TestIsAncestorOrSelf(t *testing.T) {
	c, cat := newEnv(t)
	buildTree(t, c)
	cases := []struct {
		a, b uint64
		want bool
	}{
		{1, 10, true}, {1, 1, true}, {2, 9, true}, {5, 10, true},
		{5, 9, false}, {3, 10, false}, {10, 1, false}, {4, 7, false},
		{2, 7, true}, {8, 10, true}, {9, 9, true}, {6, 9, true},
	}
	for _, tc := range cases {
		got, err := cat.IsAncestorOrSelf(tc.a, tc.b)
		if err != nil {
			t.Fatalf("(%d,%d): %v", tc.a, tc.b, err)
		}
		if got != tc.want {
			t.Fatalf("IsAncestorOrSelf(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLCA(t *testing.T) {
	c, cat := newEnv(t)
	buildTree(t, c)
	cases := []struct{ a, b, want uint64 }{
		{9, 10, 2}, {7, 10, 5}, {9, 7, 2}, {3, 10, 1},
		{6, 9, 6}, {4, 5, 2}, {10, 10, 10}, {2, 3, 1},
	}
	for _, tc := range cases {
		got, err := cat.LCA(tc.a, tc.b)
		if err != nil {
			t.Fatalf("LCA(%d,%d): %v", tc.a, tc.b, err)
		}
		if got != tc.want {
			t.Fatalf("LCA(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestChildToward(t *testing.T) {
	c, cat := newEnv(t)
	buildTree(t, c)
	cases := []struct{ a, d, want uint64 }{
		{1, 10, 2}, {1, 3, 3}, {2, 9, 4}, {2, 10, 5}, {5, 10, 8},
	}
	for _, tc := range cases {
		got, err := cat.ChildToward(tc.a, tc.d)
		if err != nil {
			t.Fatalf("ChildToward(%d,%d): %v", tc.a, tc.d, err)
		}
		if got != tc.want {
			t.Fatalf("ChildToward(%d,%d) = %d, want %d", tc.a, tc.d, got, tc.want)
		}
	}
	if _, err := cat.ChildToward(5, 5); err == nil {
		t.Fatal("ChildToward of self must fail")
	}
	if _, err := cat.ChildToward(3, 10); err == nil {
		t.Fatal("ChildToward of non-descendant must fail")
	}
}

func TestCacheAndInvalidate(t *testing.T) {
	c, cat := newEnv(t)
	writeEntry(t, c, 0, Entry{Sid: 1, Parent: 0, Depth: 0})
	e1, err := cat.Get(1)
	if err != nil || e1.BranchID != 0 {
		t.Fatalf("get: %+v %v", e1, err)
	}
	// Mutate behind the cache: Get must keep serving the cached entry
	// (immutable fields), Refresh must observe the change.
	writeEntry(t, c, 0, Entry{Sid: 1, Parent: 0, Depth: 0, BranchID: 2, NumChildren: 1})
	e2, _ := cat.Get(1)
	if e2.BranchID != 0 {
		t.Fatal("Get bypassed the cache")
	}
	e3, err := cat.Refresh(1)
	if err != nil || e3.BranchID != 2 {
		t.Fatalf("refresh: %+v %v", e3, err)
	}
	cat.Invalidate(1)
	e4, _ := cat.Get(1)
	if e4.BranchID != 2 {
		t.Fatal("invalidate did not drop the stale entry")
	}
}

func TestMissingEntry(t *testing.T) {
	_, cat := newEnv(t)
	if _, err := cat.Get(999); err == nil {
		t.Fatal("missing snapshot must error")
	}
}

func TestRefIsReplicated(t *testing.T) {
	_, cat := newEnv(t)
	ref := cat.Ref(7)
	if !ref.Replicated {
		t.Fatal("catalog refs must be replicated")
	}
	if ref.Ptr.Addr != space.CatalogAddr(0, 7) {
		t.Fatalf("wrong slot address: %#x", uint64(ref.Ptr.Addr))
	}
}
