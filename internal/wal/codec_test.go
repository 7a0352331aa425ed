package wal

import (
	"bytes"
	"encoding/binary"
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
