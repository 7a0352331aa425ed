package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// encodeRecordHeader is the tests' reference encoder for a write record's
// header; with encodeFrame it builds segment images by hand.
func encodeRecordHeader(name string, off int64) []byte {
	hdr := make([]byte, recHeaderLen(name))
	hdr[0] = recWrite
	binary.BigEndian.PutUint16(hdr[1:], uint16(len(name)))
	at := 3 + copy(hdr[3:], name)
	binary.BigEndian.PutUint64(hdr[at:], uint64(off))
	return hdr
}

// TestAppendRecordFrameMatchesReference: the in-place encoder the submit
// path uses produces, appended after earlier frames, exactly the bytes of
// the reference two-part encoder.
func TestAppendRecordFrameMatchesReference(t *testing.T) {
	var got, want []byte
	for i, n := range []int{0, 1, 100, 16 << 10} {
		name, off := "obj/"+string(rune('a'+i)), int64(i)<<20
		got = appendRecordFrame(got, name, off, pattern(i, n))
		want = append(want, encodeFrame(encodeRecordHeader(name, off), pattern(i, n))...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("in-place frames differ from the reference encoding (%d vs %d bytes)", len(got), len(want))
	}
}

// FuzzScanner: whatever bytes a segment file holds, the scanner never
// panics, ends only in io.EOF or a torn tail, and the frames it returned
// re-encode to exactly the input prefix it says it consumed — a clean
// io.EOF means that prefix is the whole input. The seed corpus under
// testdata/fuzz/FuzzScanner holds valid frames, each TestTorn* shape and
// the largest and first out-of-range length headers.
func FuzzScanner(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		sc := NewScanner(bytes.NewReader(in))
		var consumed []byte
		for {
			payload, err := sc.Next()
			if err == nil {
				consumed = append(consumed, encodeFrame(payload)...)
				if sc.Offset() != int64(len(consumed)) {
					t.Fatalf("Offset %d after %d bytes of intact frames", sc.Offset(), len(consumed))
				}
				continue
			}
			if err != io.EOF && !errors.Is(err, ErrTorn) {
				t.Fatalf("scan of in-memory bytes ended in %v, want io.EOF or ErrTorn", err)
			}
			if !bytes.HasPrefix(in, consumed) {
				t.Fatal("returned frames do not re-encode to a prefix of the input")
			}
			if err == io.EOF && len(consumed) != len(in) {
				t.Fatalf("clean EOF after %d of %d input bytes", len(consumed), len(in))
			}
			return
		}
	})
}
