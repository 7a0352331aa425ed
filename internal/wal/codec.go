// Package wal implements a crash-safe, segment-based write-ahead spill
// tier: the disk-backed overflow behind the BML staging pool (the
// "burst-buffer" direction in ROADMAP and the periodic/burst I/O literature
// in PAPERS.md). When staging-pool admission times out, the server appends
// the write to a local WAL segment and acknowledges it; a background
// drainer replays records to the backend in append order and truncates
// segments once every record in them has been applied. On startup the log
// is scanned, torn tails are discarded, and surviving records are replayed
// before the daemon accepts traffic — so a SIGKILL mid-burst loses nothing
// that was acknowledged.
//
// The package's durability logic is deterministic by design: fsync pacing
// under SyncInterval is append-count-driven, crash points for recovery
// drills are injected through Config.Crash as a pure function of the
// operation sequence (see internal/core/fault.CrashSet), and the two
// long-lived goroutines, the committer and the drainer, are
// WaitGroup-joined by Close. The single exception is the committer's
// linger window (Config.GroupLinger, see commit.go): a bounded real-time
// wait that only changes how records share an fsync, never what is on disk
// or what replay produces.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/core"
)

// Frame layout, shared by WAL segments and any other journal that reuses
// the codec (the stripetier pending-repair journal does):
//
//	0 length uint32   payload bytes following the 8-byte frame header
//	4 crc    uint32   CRC32C (Castagnoli) of the payload
//	8 payload...
//
// A frame is valid only when the full payload is present and its CRC
// matches; anything else — a short header, a short payload, a length
// outside (0, MaxFramePayload], a CRC mismatch — is a torn tail and ends
// the scan.
const frameHeader = 8

// maxRecordHeader is the largest record header a frame can carry: type
// byte, name length prefix, a maximum-length name, and the offset.
const maxRecordHeader = 1 + 2 + (1<<16 - 1) + 8

// MaxFramePayload bounds a single frame's payload: the protocol's largest
// write plus the worst-case record header. Append refuses anything larger,
// so a scanned length beyond it is garbage (a torn length field), never a
// real frame — nothing appendable is unscannable.
const MaxFramePayload = core.MaxPayload + maxRecordHeader

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn reports a torn or corrupt frame: the scanned tail from this
// point on is discarded by recovery.
var ErrTorn = errors.New("wal: torn frame")

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrFull reports that an append would push the log past its configured
// byte cap; the caller must fall back to its non-spill path.
var ErrFull = errors.New("wal: log full")

// encodeFrame assembles one frame from the payload parts into a single
// buffer (header + payload), so an append is one write call.
func encodeFrame(parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	buf := make([]byte, frameHeader+n)
	binary.BigEndian.PutUint32(buf[0:], uint32(n))
	crc := crc32.New(castagnoli)
	at := frameHeader
	for _, p := range parts {
		_, _ = crc.Write(p) // hash.Hash.Write never fails
		at += copy(buf[at:], p)
	}
	binary.BigEndian.PutUint32(buf[4:], crc.Sum32())
	return buf
}

// AppendFrame writes one length-prefixed CRC32C frame holding payload to
// w. It is exported so other journals (the stripetier pending-repair set)
// can reuse the exact on-disk framing and recovery semantics. Payloads the
// Scanner would reject as torn (empty or past MaxFramePayload) are refused
// here, so an appended frame is always recoverable.
func AppendFrame(w io.Writer, payload []byte) error {
	if len(payload) == 0 || len(payload) > MaxFramePayload {
		return fmt.Errorf("%w: unscannable frame payload length %d", core.EINVAL, len(payload))
	}
	if _, err := w.Write(encodeFrame(payload)); err != nil {
		return fmt.Errorf("%w: appending frame: %v", core.EIO, err)
	}
	return nil
}

// Scanner reads frames sequentially from r. Next returns io.EOF at a clean
// end of input and an ErrTorn-wrapped error at a torn tail; Offset reports
// how many bytes of intact frames have been consumed (the truncation point
// for discarding a torn tail).
type Scanner struct {
	r   io.Reader
	off int64
}

// NewScanner returns a Scanner over r.
func NewScanner(r io.Reader) *Scanner { return &Scanner{r: r} }

// Offset returns the byte offset just past the last intact frame.
func (s *Scanner) Offset() int64 { return s.off }

// Next returns the next frame's payload. io.EOF marks a clean end (the
// previous frame ended exactly at EOF); a short header, short payload,
// out-of-range length, or CRC mismatch returns an error wrapping ErrTorn.
func (s *Scanner) Next() ([]byte, error) {
	var hb [frameHeader]byte
	if _, err := io.ReadFull(s.r, hb[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: short frame header", ErrTorn)
		}
		return nil, fmt.Errorf("%w: reading frame header: %v", core.EIO, err)
	}
	n := binary.BigEndian.Uint32(hb[0:])
	want := binary.BigEndian.Uint32(hb[4:])
	if n == 0 || n > MaxFramePayload {
		return nil, fmt.Errorf("%w: frame length %d out of range", ErrTorn, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(s.r, payload); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: short frame payload (%d of %d bytes)", ErrTorn, 0, n)
		}
		return nil, fmt.Errorf("%w: reading frame payload: %v", core.EIO, err)
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: payload crc %#x, frame says %#x", ErrTorn, got, want)
	}
	s.off += int64(frameHeader) + int64(n)
	return payload, nil
}

// WAL record payload layout (inside a frame):
//
//	0 type    uint8    recWrite
//	1 nameLen uint16   backend object name length
//	3 name    ...
//	. offset  uint64   backend offset the data applies at
//	. data    ...      the write payload (rest of the frame)
const recWrite = 1

// recHeaderLen returns the record header size for a name.
func recHeaderLen(name string) int { return 1 + 2 + len(name) + 8 }

// appendRecordFrame appends one write record's whole frame — frame header,
// record header, data — to dst and returns the extended slice. The data is
// copied exactly once, straight to its final position (a cohort's batch
// buffer), and the CRC is computed over the bytes in place.
func appendRecordFrame(dst []byte, name string, off int64, data []byte) []byte {
	start := len(dst)
	n := recHeaderLen(name) + len(data)
	dst = slices.Grow(dst, frameHeader+n)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, 0, 0, 0, 0) // crc, filled in below
	dst = append(dst, recWrite)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(off))
	dst = append(dst, data...)
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[start+frameHeader:], castagnoli))
	return dst
}

// decodeRecord splits a frame payload into its record fields. A payload
// that does not parse is corrupt in a way the CRC cannot catch (a bug, not
// bit rot) and is reported as torn so recovery discards it.
func decodeRecord(payload []byte) (name string, off int64, data []byte, err error) {
	if len(payload) < 3 || payload[0] != recWrite {
		return "", 0, nil, fmt.Errorf("%w: bad record type", ErrTorn)
	}
	nameLen := int(binary.BigEndian.Uint16(payload[1:]))
	if nameLen == 0 || len(payload) < 3+nameLen+8 {
		return "", 0, nil, fmt.Errorf("%w: record header overruns payload", ErrTorn)
	}
	name = string(payload[3 : 3+nameLen])
	off = int64(binary.BigEndian.Uint64(payload[3+nameLen:]))
	data = payload[3+nameLen+8:]
	if off < 0 {
		return "", 0, nil, fmt.Errorf("%w: negative record offset", ErrTorn)
	}
	return name, off, data, nil
}
