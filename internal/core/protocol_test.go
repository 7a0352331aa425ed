package core

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	in := header{op: OpPwrite, flags: FlagStaged | FlagDeferredErr, reqID: 42, fd: 7, offset: 1 << 40, length: 123456, pathLen: 77}
	var b [headerSize]byte
	in.encode(&b)
	var out header
	if err := decodeHeader(&b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	prop := func(op uint8, flags uint16, reqID, fd, offset uint64, length uint32, pathLen uint16) bool {
		in := header{op: Op(op), flags: flags, reqID: reqID, fd: fd, offset: offset, length: length, pathLen: pathLen}
		var b [headerSize]byte
		in.encode(&b)
		var out header
		if err := decodeHeader(&b, &out); err != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	var b [headerSize]byte
	b[0] = 0xde
	var h header
	if err := decodeHeader(&b, &h); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	in := header{op: OpOpen}
	var b [headerSize]byte
	in.encode(&b)
	b[4] = 99
	var h header
	if err := decodeHeader(&b, &h); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestWriteFrameSegments(t *testing.T) {
	var buf bytes.Buffer
	h := header{op: OpOpen, reqID: 1, pathLen: 3, length: 5}
	var hb [headerSize]byte
	if err := writeFrame(&buf, hb[:], &h, "abc", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != headerSize+3+5 {
		t.Fatalf("frame length %d", buf.Len())
	}
	var out header
	if err := readHeader(&buf, &hb, &out); err != nil {
		t.Fatal(err)
	}
	rest := buf.Bytes()
	if string(rest) != "abchello" {
		t.Fatalf("segments %q", rest)
	}
}

func TestOpStrings(t *testing.T) {
	ops := []Op{OpOpen, OpClose, OpWrite, OpPwrite, OpRead, OpPread, OpFsync, OpStat, OpFlush, OpErrPoll}
	seen := map[string]bool{}
	for _, op := range ops {
		s := op.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate op string %q", s)
		}
		seen[s] = true
	}
	if Op(200).String() != "op(200)" {
		t.Fatalf("unknown op string %q", Op(200).String())
	}
}

// FuzzDecodeHeader: whatever bytes arrive where a frame header should be,
// readHeader either fails — with io.EOF or io.ErrUnexpectedEOF on a short
// read, with an EINVAL-wrapped error on a bad magic or version — or
// returns a header that re-encodes to exactly the bytes it read (the pad
// field is reserved: the decoder ignores it and the encoder writes zero).
// The seed corpus under testdata/fuzz/FuzzDecodeHeader holds a header for
// every Op, zero, MaxPayload and maximum uint32 lengths, a bad magic, a bad
// version and a short read.
func FuzzDecodeHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var hb [headerSize]byte
		var h header
		err := readHeader(bytes.NewReader(in), &hb, &h)
		if len(in) < headerSize {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("%d-byte input: got %v, want io.EOF or io.ErrUnexpectedEOF", len(in), err)
			}
			return
		}
		if err != nil {
			if !errors.Is(err, EINVAL) {
				t.Fatalf("decode failed with %v, want an EINVAL-wrapped error", err)
			}
			return
		}
		want := hb
		want[38], want[39] = 0, 0
		var got [headerSize]byte
		h.encode(&got)
		if got != want {
			t.Fatalf("decoded header %+v re-encodes to %x, read %x", h, got, hb)
		}
	})
}
