package core

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Op identifies a forwarded operation.
type Op uint8

// Forwarded operations.
const (
	OpOpen Op = iota + 1
	OpClose
	OpWrite  // sequential write at the descriptor cursor
	OpPwrite // positional write
	OpRead   // sequential read at the descriptor cursor
	OpPread  // positional read
	OpFsync
	OpStat
	OpFlush   // drain every staged operation on the connection
	OpErrPoll // collect a pending deferred error without doing I/O
)

func (o Op) String() string {
	switch o {
	case OpOpen:
		return "open"
	case OpClose:
		return "close"
	case OpWrite:
		return "write"
	case OpPwrite:
		return "pwrite"
	case OpRead:
		return "read"
	case OpPread:
		return "pread"
	case OpFsync:
		return "fsync"
	case OpStat:
		return "stat"
	case OpFlush:
		return "flush"
	case OpErrPoll:
		return "errpoll"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Request flags.
const (
	// FlagStaged in a response tells the client the write was staged, not
	// yet executed (asynchronous data staging).
	FlagStaged uint16 = 1 << iota
	// FlagDeferredErr in a response tells the client the errno field
	// reports a *previous* staged operation's failure on this descriptor.
	FlagDeferredErr
	// FlagDegraded in a response tells the client the write bypassed
	// asynchronous staging and executed synchronously because staging-pool
	// admission timed out (BML exhaustion degradation) or the spill tier
	// refused it.
	FlagDegraded
	// FlagSpilled in a response tells the client the write missed staging
	// admission but was durably appended to the write-ahead spill tier and
	// will be drained to the backend asynchronously (always accompanied by
	// FlagStaged: failures surface as deferred errors).
	FlagSpilled
)

// Protocol constants.
const (
	protoMagic   uint32 = 0x494F4657 // "IOFW"
	protoVersion uint8  = 1
	headerSize          = 40
	// MaxPayload bounds a single operation's payload.
	MaxPayload = 64 << 20
	// MaxPath bounds the path length in an open request.
	MaxPath = 4096
)

// header is the fixed-size frame prefix shared by requests and responses.
//
// Layout (big-endian):
//
//	0  magic   uint32
//	4  version uint8
//	5  op      uint8
//	6  flags   uint16
//	8  reqID   uint64
//	16 fd      uint64
//	24 offset  uint64   (requests) / value int64 (responses)
//	32 length  uint32   (payload bytes following the header [+path])
//	36 pathLen uint16   (requests) / errno uint16 (responses, 0 = ok)
//	38 pad     uint16
type header struct {
	op      Op
	flags   uint16
	reqID   uint64
	fd      uint64
	offset  uint64 // or response value
	length  uint32
	pathLen uint16 // or response errno
}

func (h *header) encode(b *[headerSize]byte) {
	binary.BigEndian.PutUint32(b[0:], protoMagic)
	b[4] = protoVersion
	b[5] = byte(h.op)
	binary.BigEndian.PutUint16(b[6:], h.flags)
	binary.BigEndian.PutUint64(b[8:], h.reqID)
	binary.BigEndian.PutUint64(b[16:], h.fd)
	binary.BigEndian.PutUint64(b[24:], h.offset)
	binary.BigEndian.PutUint32(b[32:], h.length)
	binary.BigEndian.PutUint16(b[36:], h.pathLen)
	binary.BigEndian.PutUint16(b[38:], 0)
}

func decodeHeader(b *[headerSize]byte, h *header) error {
	if binary.BigEndian.Uint32(b[0:]) != protoMagic {
		return fmt.Errorf("%w: bad frame magic %#x", EINVAL, binary.BigEndian.Uint32(b[0:]))
	}
	if b[4] != protoVersion {
		return fmt.Errorf("%w: unsupported protocol version %d", EINVAL, b[4])
	}
	h.op = Op(b[5])
	h.flags = binary.BigEndian.Uint16(b[6:])
	h.reqID = binary.BigEndian.Uint64(b[8:])
	h.fd = binary.BigEndian.Uint64(b[16:])
	h.offset = binary.BigEndian.Uint64(b[24:])
	h.length = binary.BigEndian.Uint32(b[32:])
	h.pathLen = binary.BigEndian.Uint16(b[36:])
	return nil
}

// frameCopyMax is the largest request frame the client sends as one Write:
// a frame this size or smaller is copied into the client's frame buffer
// first. 4 KiB and 16 KiB records qualify, so a small op costs one send
// syscall; a 1 MiB record does not, so a large payload is never copied.
const frameCopyMax = 64 << 10

// writeFrame encodes h and writes the frame: header, then the optional path
// and payload. wb is the caller's frame buffer, at least headerSize long and
// guarded by its write lock, so no frame allocates. A frame that fits in wb
// is copied into it and leaves in one Write; a larger one leaves as the
// header, then the path, then the payload, each in its own Write.
func writeFrame(w io.Writer, wb []byte, h *header, path string, payload []byte) error {
	h.encode((*[headerSize]byte)(wb))
	if n := headerSize + len(path) + len(payload); n <= len(wb) {
		copy(wb[headerSize:], path)
		copy(wb[headerSize+len(path):], payload)
		_, err := w.Write(wb[:n])
		return err
	}
	if _, err := w.Write(wb[:headerSize]); err != nil {
		return err
	}
	if path != "" {
		if _, err := io.WriteString(w, path); err != nil {
			return err
		}
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readHeader reads one frame header into hb and decodes it into h. The
// caller owns hb (one array per reading goroutine), so no frame allocates.
func readHeader(r io.Reader, hb *[headerSize]byte, h *header) error {
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		return err
	}
	return decodeHeader(hb, h)
}
