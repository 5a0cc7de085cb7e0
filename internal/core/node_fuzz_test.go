package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"minuet/internal/sinfonia"
	"minuet/internal/wire"
)

// FuzzNodeView fuzzes the one parser of node images (parseNode; decodeNode is
// parseNode + materialize). Dirty traversals read whatever bytes a stale
// pointer leads to, so for arbitrary input the parser must not panic and must
// not size its offset table beyond what the input could back. Whenever an
// image does parse, the view must describe exactly the bytes it consumed
// (materialize + encode reproduces them) and must answer search, childIndex
// and inRange as a plain scan of the materialized node does.
//
// The seed corpus in testdata/fuzz/FuzzNodeView runs as ordinary unit tests in
// every `go test`; TestFuzzNodeViewCorpus keeps it in step with the encoder.
func FuzzNodeView(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, probe []byte) {
		v, err := parseNode(data)
		if err != nil {
			if _, err := decodeNode(data); err == nil {
				t.Fatal("decodeNode accepted what parseNode refused")
			}
			return
		}
		// O(len(input)) memory: every table entry but the last stands for a
		// record of at least two bytes.
		if n := len(v.off16) + len(v.off32); 2*(n-1) > len(data) {
			t.Fatalf("offset table of %d entries for %d input bytes", n, len(data))
		}
		n := v.materialize()
		if got := n.encode(); !bytes.Equal(got, v.raw) || !bytes.HasPrefix(data, v.raw) {
			t.Fatalf("re-encoding differs from the %d bytes consumed:\n got %x\nwant %x", len(v.raw), got, v.raw)
		}
		if len(n.Keys) != v.len() {
			t.Fatalf("%d keys materialized, view has %d", len(n.Keys), v.len())
		}
		sorted := true
		for i := range n.Keys {
			if !bytes.Equal(n.Keys[i], v.key(i)) {
				t.Fatalf("key %d: %q vs %q", i, n.Keys[i], v.key(i))
			}
			if i > 0 && bytes.Compare(n.Keys[i-1], n.Keys[i]) >= 0 {
				sorted = false
			}
		}
		for i := range n.Vals {
			if !bytes.Equal(n.Vals[i], v.val(i)) {
				t.Fatalf("val %d: %q vs %q", i, n.Vals[i], v.val(i))
			}
		}
		for i := range n.Kids {
			if n.Kids[i] != v.kid(i) {
				t.Fatalf("kid %d: %v vs %v", i, n.Kids[i], v.kid(i))
			}
		}

		probes := []wire.Key{probe, nil}
		stored := n.Keys
		if len(stored) > 128 { // a huge node: its ends will do (the scan oracle is quadratic)
			stored = append(append([]wire.Key(nil), stored[:64]...), stored[len(stored)-64:]...)
		}
		for _, k := range stored {
			probes = append(probes, k, append(append(wire.Key(nil), k...), 0)) // the key, its successor
			if len(k) > 0 {
				pred := append(wire.Key(nil), k...)
				if pred[len(pred)-1]--; pred[len(pred)-1] == 0xFF {
					pred = pred[:len(pred)-1] // k ended in 0x00: its prefix precedes it
				}
				probes = append(probes, pred)
			}
		}
		for _, k := range probes {
			wantIn := n.Low.CompareKey(k) >= 0 && (n.High.IsPosInf() || n.High.CompareKey(k) < 0)
			if got := v.inRange(k); got != wantIn {
				t.Fatalf("inRange(%q) = %v, fences [%v,%v)", k, got, n.Low, n.High)
			}
			i, found := v.search(k)
			ci := v.childIndex(k)
			if i < 0 || i > v.len() || ci < 0 || ci > v.len() {
				t.Fatalf("search(%q) = %d, childIndex = %d, with %d keys", k, i, ci, v.len())
			}
			if !sorted {
				continue // garbage that happens to parse: any in-range answer will do
			}
			lower, upper := 0, 0 // keys < k, keys ≤ k
			for _, s := range n.Keys {
				if c := bytes.Compare(s, k); c < 0 {
					lower++
					upper++
				} else if c == 0 {
					upper++
				}
			}
			if i != lower || found != (upper > lower) || ci != upper {
				t.Fatalf("search(%q) = %d,%v childIndex = %d; scan says %d,%v and %d", k, i, found, ci, lower, upper > lower, upper)
			}
			if ni, nfound := n.search(k); ni != i || nfound != found {
				t.Fatalf("Node.search(%q) = %d,%v; view says %d,%v", k, ni, nfound, i, found)
			}
		}
	})
}

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzNodeView from the sample nodes")

// fuzzSamples are the node shapes the seed corpus covers, by corpus file name.
func fuzzSamples() map[string][]byte {
	leaf := func(lo, hi int, low, high wire.Fence) *Node {
		n := &Node{Tree: 2, Created: 7, Copied: NoSnap, Low: low, High: high}
		for i := lo; i < hi; i++ {
			n.Keys = append(n.Keys, key(i))
			n.Vals = append(n.Vals, val(i))
		}
		return n
	}
	kids := func(n int) []Ptr {
		out := make([]Ptr, n)
		for i := range out {
			out[i] = Ptr{Node: sinfonia.NodeID(i % 2), Addr: sinfonia.Addr(1<<20 + 512*i)}
		}
		return out
	}
	full := leaf(100, 228, wire.FenceAt(key(100)), wire.FenceAt(key(228))) // 128 keys: a full default leaf
	zeroVal := leaf(0, 3, wire.NegInf, wire.FenceAt(key(3)))
	zeroVal.Vals[1] = nil
	redirected := leaf(10, 14, wire.FenceAt(key(10)), wire.PosInf)
	redirected.Redirects = []Redirect{{Sid: 9, Ptr: kids(1)[0]}, {Sid: 12, Ptr: kids(2)[1]}} // β = 2
	inner := &Node{Tree: 2, Height: 2, Created: 3, Copied: 9, Low: wire.FenceAt(wire.Key("b")), High: wire.FenceAt(wire.Key("m")),
		Keys: []wire.Key{wire.Key("c"), wire.Key("f"), wire.Key("j")}, Kids: kids(4)}
	root := &Node{Height: 1, Created: 1, Copied: NoSnap, Low: wire.NegInf, High: wire.PosInf, Kids: kids(1)}
	return map[string][]byte{
		"leaf-empty":      leaf(0, 0, wire.NegInf, wire.PosInf).encode(),
		"leaf-full":       full.encode(),
		"leaf-zero-value": zeroVal.encode(),
		"leaf-redirects":  redirected.encode(),
		"inner":           inner.encode(),
		"root-one-child":  root.encode(),
		"truncated":       full.encode()[:1000],
	}
}

// TestFuzzNodeViewCorpus checks that the checked-in seed corpus still holds
// the encodings of the sample nodes it was made from, so a format change
// cannot leave the fuzzer starting from stale shapes. Regenerate with
//
//	go test ./internal/core -run TestFuzzNodeViewCorpus -update
func TestFuzzNodeViewCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzNodeView")
	for name, img := range fuzzSamples() {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n[]byte(%q)\n", img, key(101))
		path := filepath.Join(dir, name)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s is stale: the encoder no longer produces it (rerun with -update)", path)
		}
	}
}
