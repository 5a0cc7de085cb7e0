package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBufferReaderRoundTrip(t *testing.T) {
	w := NewBuffer(64)
	w.U8(0xAB)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.Bytes16([]byte("hello"))
	w.Bytes32([]byte("world!"))
	w.Fence(NegInf)
	w.Fence(PosInf)
	w.Fence(FenceAt(Key("mid")))

	r := NewReader(w.Bytes())
	if r.U8() != 0xAB || r.U16() != 0xBEEF || r.U32() != 0xDEADBEEF || r.U64() != 0x0123456789ABCDEF {
		t.Fatal("integer round trip failed")
	}
	if string(r.Bytes16()) != "hello" || string(r.Bytes32()) != "world!" {
		t.Fatal("byte-string round trip failed")
	}
	if !r.Fence().IsNegInf() || !r.Fence().IsPosInf() {
		t.Fatal("sentinel fences failed")
	}
	f := r.Fence()
	if f.IsNegInf() || f.IsPosInf() || string(f.Key()) != "mid" {
		t.Fatalf("key fence failed: %v", f)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

// TestBufferResetReusesStorage encodes into a Buffer, resets it, and
// encodes again: the second value starts at offset 0 and, fitting the
// storage the first one grew, allocates nothing.
func TestBufferResetReusesStorage(t *testing.T) {
	var w Buffer
	w.Bytes32(bytes.Repeat([]byte{1}, 100))
	first := &w.Bytes()[0]
	allocs := testing.AllocsPerRun(10, func() {
		w.Reset()
		w.U64(7)
		w.Bytes32([]byte("again"))
	})
	if allocs != 0 || w.Len() != 17 || &w.Bytes()[0] != first {
		t.Fatalf("after Reset: %v allocs, %d bytes, same storage %v", allocs, w.Len(), &w.Bytes()[0] == first)
	}
	if r := NewReader(w.Bytes()); r.U64() != 7 || string(r.Bytes32()) != "again" || r.Remaining() != 0 {
		t.Fatal("the value encoded after Reset does not read back")
	}
}

// TestQuickIntegers round-trips random integers through the codec.
func TestQuickIntegers(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64) bool {
		w := NewBuffer(32)
		w.U8(a)
		w.U16(b)
		w.U32(c)
		w.U64(d)
		r := NewReader(w.Bytes())
		return r.U8() == a && r.U16() == b && r.U32() == c && r.U64() == d && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBytes round-trips random byte strings.
func TestQuickBytes(t *testing.T) {
	f := func(p []byte) bool {
		if len(p) > 0xFFFF {
			p = p[:0xFFFF]
		}
		w := NewBuffer(len(p) + 8)
		w.Bytes16(p)
		w.Bytes32(p)
		r := NewReader(w.Bytes())
		a := r.Bytes16()
		b := r.Bytes32()
		return bytes.Equal(a, p) && bytes.Equal(b, p) && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTruncationIsError verifies that any truncation of a valid encoding
// produces an error, never a panic or silent garbage.
func TestTruncationIsError(t *testing.T) {
	w := NewBuffer(64)
	w.U64(7)
	w.Bytes16([]byte("payload"))
	w.Fence(FenceAt(Key("k")))
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.U64()
		r.Bytes16()
		r.Fence()
		if r.Err() == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
	}
}

// TestCountBoundedByRemaining: an element count is accepted only when the
// input that follows could back that many elements of the stated minimum
// size.
func TestCountBoundedByRemaining(t *testing.T) {
	w := NewBuffer(16)
	w.U32(3)
	w.U64(1)
	w.U32(2) // 12 bytes follow the first count
	if n := NewReader(w.Bytes()).Count(4); n != 3 {
		t.Fatalf("3 elements of 4 bytes in 12: Count = %d", n)
	}
	for _, p := range [][]byte{w.Bytes(), {0xFF, 0xFF, 0xFF, 0xFF}, {1, 0}} {
		r := NewReader(p)
		if n := r.Count(5); n != 0 || r.Err() == nil {
			t.Fatalf("Count(5) over % x = %d, err %v; want a failed read", p, n, r.Err())
		}
	}
}

func TestFenceOrdering(t *testing.T) {
	ks := []Key{nil, Key(""), Key("a"), Key("ab"), Key("b")}
	for _, k := range ks {
		if NegInf.CompareKey(k) != 1 {
			t.Fatalf("-inf vs %q", k)
		}
		if PosInf.CompareKey(k) != -1 {
			t.Fatalf("+inf vs %q", k)
		}
	}
	if FenceAt(Key("m")).CompareKey(Key("a")) != -1 {
		t.Fatal("a < m")
	}
	if FenceAt(Key("m")).CompareKey(Key("m")) != 0 {
		t.Fatal("m == m")
	}
	if FenceAt(Key("m")).CompareKey(Key("z")) != 1 {
		t.Fatal("z > m")
	}
	// Fence-vs-fence ordering.
	if NegInf.Compare(PosInf) >= 0 || PosInf.Compare(NegInf) <= 0 {
		t.Fatal("sentinel order")
	}
	if NegInf.Compare(NegInf) != 0 || PosInf.Compare(PosInf) != 0 {
		t.Fatal("sentinel self-compare")
	}
	if NegInf.Compare(FenceAt(Key(""))) >= 0 || FenceAt(Key("")).Compare(PosInf) >= 0 {
		t.Fatal("empty key between sentinels")
	}
	if FenceAt(Key("a")).Compare(FenceAt(Key("b"))) >= 0 {
		t.Fatal("a < b as fences")
	}
}

// TestQuickFenceConsistency: CompareKey must agree with Compare through
// FenceAt for arbitrary keys.
func TestQuickFenceConsistency(t *testing.T) {
	f := func(a, b []byte) bool {
		fa := FenceAt(a)
		cmpKey := fa.CompareKey(b)     // orders b against fence a: -1 ⇔ b < a
		cmpF := FenceAt(b).Compare(fa) // orders fence b against fence a
		return cmpKey == cmpF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestU64KeyOrderMatchesNumericOrder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		a, b := r.Uint64(), r.Uint64()
		ka, kb := U64Key(a), U64Key(b)
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b && cmp >= 0, a > b && cmp <= 0, a == b && cmp != 0:
			t.Fatalf("order mismatch: %d vs %d -> %d", a, b, cmp)
		}
		if KeyU64(ka) != a {
			t.Fatalf("U64Key round trip: %d", a)
		}
	}
}

func TestCloneKeyIndependent(t *testing.T) {
	k := Key("abc")
	c := CloneKey(k)
	k[0] = 'z'
	if string(c) != "abc" {
		t.Fatal("clone aliases source")
	}
}

func TestFenceMarkerGarbage(t *testing.T) {
	r := NewReader([]byte{99})
	r.Fence()
	if r.Err() == nil {
		t.Fatal("bad fence marker must error")
	}
}
