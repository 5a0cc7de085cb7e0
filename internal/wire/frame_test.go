package wire

import (
	"bytes"
	"testing"
)

func TestFramePreambleRoundTrip(t *testing.T) {
	p := AppendFramePreamble(nil)
	if len(p) != FramePreambleLen {
		t.Fatalf("preamble length %d, want %d", len(p), FramePreambleLen)
	}
	v, err := ParseFramePreamble(p)
	if err != nil || v != FrameVersion {
		t.Fatalf("parse preamble: v=%d err=%v", v, err)
	}
}

func TestFramePreambleRejectsOtherBytes(t *testing.T) {
	// Anything that does not open with the magic — a bare length prefix, an
	// HTTP request, a short read — is an error, not a second protocol.
	for _, p := range [][]byte{{0, 0, 2, 0}, []byte("GET "), {'M', 'N', 'Y', FrameVersion}, {'M', 'N', 'X'}} {
		if _, err := ParseFramePreamble(p); err == nil {
			t.Fatalf("% x parsed as a preamble", p)
		}
	}
}

func TestFramePreambleUnsupportedVersion(t *testing.T) {
	p := AppendFramePreamble(nil)
	p[3] = 99
	v, err := ParseFramePreamble(p)
	if err == nil || v != 99 {
		t.Fatalf("want unsupported version 99, got v=%d err=%v", v, err)
	}
}

func TestFrameHeaderRoundTrip(t *testing.T) {
	for _, h := range []FrameHeader{
		{},
		{ID: 1, Flags: FrameFlagError, Length: 0},
		{ID: 1<<64 - 1, Flags: FrameFlagError | 1<<1, Length: MaxFramePayload}, // 1<<1 has no meaning: receivers ignore it
		{ID: 42, Length: 12345},
	} {
		enc := h.AppendFrameHeader(nil)
		if len(enc) != FrameHeaderLen {
			t.Fatalf("header length %d, want %d", len(enc), FrameHeaderLen)
		}
		got, err := ParseFrameHeader(enc)
		if err != nil {
			t.Fatalf("parse %+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip: got %+v want %+v", got, h)
		}
	}
}

func TestFrameHeaderRejectsOversizedPayload(t *testing.T) {
	enc := FrameHeader{ID: 7, Length: MaxFramePayload + 1}.AppendFrameHeader(nil)
	if _, err := ParseFrameHeader(enc); err == nil {
		t.Fatal("want error for payload above MaxFramePayload")
	}
}

func TestFrameHeaderShortBuffer(t *testing.T) {
	enc := FrameHeader{ID: 7, Length: 9}.AppendFrameHeader(nil)
	if _, err := ParseFrameHeader(enc[:FrameHeaderLen-1]); err == nil {
		t.Fatal("want error for truncated header")
	}
	if !bytes.Equal(enc, FrameHeader{ID: 7, Length: 9}.AppendFrameHeader(nil)) {
		t.Fatal("encoding not deterministic")
	}
}
